// One-time lowering of an ir::Module to flat register bytecode.
#pragma once

#include <memory>

#include "vm/bytecode.h"

namespace epvf::vm::bc {

/// Lowers every function of `module` to bytecode. The module must pass
/// ir::VerifyModule: a construct the executor cannot represent (a function
/// without blocks, a block without a terminator, a phi after a non-phi
/// instruction, a phi without an incoming edge for a predecessor, a none
/// operand, a phi in a function's entry block) throws std::invalid_argument
/// naming it. The returned program
/// is immutable and safe to share across threads and Interpreter instances —
/// one compile serves a whole campaign.
[[nodiscard]] std::shared_ptr<const Program> Compile(const ir::Module& module);

}  // namespace epvf::vm::bc
