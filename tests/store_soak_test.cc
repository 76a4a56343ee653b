// Concurrency soak for the artifact store: many writers, one cache
// directory, zero tolerance for torn or stale reads.
//
// The store's claim is that atomic publication (temp file + fsync + rename)
// makes a shared cache directory safe for any number of concurrent
// processes. This suite hammers that claim from two directions: in-process
// thread storms racing Store/Load on the same and on distinct entries, and
// real multi-process storms (racing `epvf analyze`/`epvf campaign`
// invocations through EPVF_CLI_PATH, plus raw Subprocess writer swarms).
// After every storm each surviving entry must pass the full Open + CRC
// validation and no temp-file droppings may remain. The whole suite runs
// under ASan/UBSan in the sanitizer CI job like every other test.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "store/cache.h"
#include "store/serializer.h"
#include "support/subprocess.h"

namespace epvf::store {

/// A small but non-trivial artifact whose payload encodes `tag` — every
/// writer of the same tag produces identical bytes, so racing writers of one
/// entry are indistinguishable, which is exactly the store's contract.
/// Outside the anonymous namespace because main()'s writer mode uses it too.
ArtifactWriter MakeArtifact(std::uint64_t tag) {
  ArtifactWriter writer(ArtifactKind::kCampaign);
  ByteWriter& section = writer.Section(SectionId::kCampaign);
  section.U64(tag);
  for (std::uint64_t i = 0; i < 512; ++i) section.U64(tag * 1000003 + i);
  return writer;
}

namespace {

namespace fs = std::filesystem;

struct TempDir {
  std::string path;

  TempDir() {
    std::string tmpl = (fs::temp_directory_path() / "epvf_soak_XXXXXX").string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    char* made = mkdtemp(buf.data());
    EXPECT_NE(made, nullptr);
    path = made == nullptr ? std::string() : std::string(made);
  }
  ~TempDir() {
    if (path.empty()) return;
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
};

/// Every *.epvfa entry in `dir` must open and pass CRC validation; returns
/// the number validated.
int ValidateAllEntries(const std::string& dir) {
  int validated = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    ArtifactKind kind;
    if (name.size() > 15 && name.rfind(".analysis.epvfa") == name.size() - 15) {
      kind = ArtifactKind::kAnalysis;
    } else if (name.size() > 15 && name.rfind(".campaign.epvfa") == name.size() - 15) {
      kind = ArtifactKind::kCampaign;
    } else if (name.size() > 11 && name.rfind(".plan.epvfa") == name.size() - 11) {
      kind = ArtifactKind::kPlan;
    } else {
      continue;
    }
    EXPECT_TRUE(ArtifactReader::Open(entry.path().string(), kind).has_value())
        << name << " failed open/CRC validation";
    validated += 1;
  }
  return validated;
}

/// Atomic publication must never leave temp files behind once all writers
/// are done.
void ExpectNoTempDroppings(const std::string& dir) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(name.find(".tmp"), std::string::npos) << "leftover temp file " << name;
  }
}

// --- in-process thread storms ------------------------------------------------

TEST(StoreSoak, ThreadsRacingOnTheSameEntryNeverTearIt) {
  TempDir dir;
  constexpr int kThreads = 8;
  constexpr int kRounds = 25;

  // Seed the entry first so every subsequent Load must succeed: from then on
  // a nullopt can only mean a torn or corrupt read, never "not written yet".
  {
    ArtifactCache seed(dir.path);
    ASSERT_TRUE(seed.Store("contended", MakeArtifact(7)));
  }

  std::atomic<int> load_failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ArtifactCache cache(dir.path);
      for (int round = 0; round < kRounds; ++round) {
        if ((t + round) % 2 == 0) {
          EXPECT_TRUE(cache.Store("contended", MakeArtifact(7)));
        } else if (!cache.Load("contended", ArtifactKind::kCampaign).has_value()) {
          load_failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(load_failures.load(), 0) << "a reader saw a torn or corrupt entry";
  EXPECT_EQ(ValidateAllEntries(dir.path), 1);
  ExpectNoTempDroppings(dir.path);
}

TEST(StoreSoak, ThreadsWritingDistinctEntriesAllSurvive) {
  TempDir dir;
  constexpr int kThreads = 8;
  constexpr int kEntriesPerThread = 12;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ArtifactCache cache(dir.path);
      for (int i = 0; i < kEntriesPerThread; ++i) {
        const std::uint64_t tag =
            static_cast<std::uint64_t>(t) * kEntriesPerThread + static_cast<std::uint64_t>(i);
        EXPECT_TRUE(cache.Store("entry-" + std::to_string(tag), MakeArtifact(tag)));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(ValidateAllEntries(dir.path), kThreads * kEntriesPerThread);
  ExpectNoTempDroppings(dir.path);
}

// --- multi-process storms ----------------------------------------------------

TEST(StoreSoak, ProcessSwarmSharingOneCacheDirectory) {
  TempDir dir;
  // Heterogeneous swarm: analyze and inject invocations — some colliding on
  // identical keys, some distinct — all writing through one directory.
  const std::vector<std::string> commands = {
      "analyze mm --scale 0", "analyze mm --scale 0",  "analyze nw --scale 0",
      "analyze mm --scale 0", "inject mm --scale 0 --runs 12 --seed 3 --jobs 1",
      "inject mm --scale 0 --runs 12 --seed 3 --jobs 1",
      "inject nw --scale 0 --runs 12 --seed 4 --jobs 1",
  };

  std::vector<Subprocess> children;
  children.reserve(commands.size());
  for (std::size_t i = 0; i < commands.size(); ++i) {
    SubprocessOptions options;
    options.argv = {"/bin/sh", "-c",
                    std::string(EPVF_CLI_PATH) + " " + commands[i] + " --cache-dir " +
                        dir.path + " >/dev/null 2>&1"};
    std::optional<Subprocess> child = Subprocess::Spawn(options);
    ASSERT_TRUE(child.has_value());
    children.push_back(std::move(*child));
  }
  for (Subprocess& child : children) {
    EXPECT_TRUE(child.Wait().Success()) << "a swarm member failed";
  }

  // Two analysis entries (mm, nw) and two campaign plan entries survive, all
  // valid; racing writers of the same key were invisible.
  EXPECT_EQ(ValidateAllEntries(dir.path), 4);
  ExpectNoTempDroppings(dir.path);
}

TEST(StoreSoak, RawWriterProcessSwarmOnOneEntry) {
  TempDir dir;
  // Hammer one entry from many processes at once. Each child re-execs the
  // test binary in writer mode (see main below) so the writers really are
  // separate processes, not threads.
  const char* self = std::getenv("EPVF_SOAK_SELF");
  ASSERT_NE(self, nullptr) << "main() must export the test binary's own path";

  constexpr int kProcesses = 6;
  std::vector<Subprocess> children;
  children.reserve(kProcesses);
  for (int i = 0; i < kProcesses; ++i) {
    SubprocessOptions options;
    options.argv = {self};
    options.env = {"EPVF_SOAK_WRITER_DIR=" + dir.path};
    std::optional<Subprocess> child = Subprocess::Spawn(options);
    ASSERT_TRUE(child.has_value());
    children.push_back(std::move(*child));
  }
  for (Subprocess& child : children) EXPECT_TRUE(child.Wait().Success());

  ArtifactCache cache(dir.path);
  EXPECT_TRUE(cache.Load("swarm", ArtifactKind::kCampaign).has_value());
  EXPECT_EQ(ValidateAllEntries(dir.path), 1);
  ExpectNoTempDroppings(dir.path);
}

}  // namespace
}  // namespace epvf::store

int main(int argc, char** argv) {
  // Writer mode: when EPVF_SOAK_WRITER_DIR is set this process is a swarm
  // child — write the contended entry a few times and exit without running
  // any tests.
  if (const char* dir = std::getenv("EPVF_SOAK_WRITER_DIR")) {
    epvf::store::ArtifactCache cache(dir);
    for (int i = 0; i < 20; ++i) {
      if (!cache.Store("swarm", epvf::store::MakeArtifact(99))) return 1;
    }
    return 0;
  }
  setenv("EPVF_SOAK_SELF", argv[0], 1);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
