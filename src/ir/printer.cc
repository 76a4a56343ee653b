#include "ir/printer.h"

#include <sstream>

namespace epvf::ir {

namespace {

// The verifier prints the instruction behind every error, range errors
// included, so an index that points outside its table prints as a marker
// instead of being followed.
std::string OutOfRange(const char* what, std::uint32_t index) {
  return "<bad " + std::string(what) + " " + std::to_string(index) + ">";
}

std::string RegName(const Function& fn, std::uint32_t reg) {
  if (reg >= fn.registers.size()) return "%" + OutOfRange("register", reg);
  const std::string& name = fn.registers[reg].name;
  if (!name.empty()) return "%" + name + "." + std::to_string(reg);
  return "%r" + std::to_string(reg);
}

std::string BlockName(const Function& fn, std::uint32_t block) {
  return block < fn.blocks.size() ? fn.blocks[block].name : OutOfRange("block", block);
}

}  // namespace

std::string PrintValue(const Module& module, const Function& fn, ValueRef v) {
  switch (v.kind) {
    case ValueKind::kNone: return "<none>";
    case ValueKind::kRegister: return RegName(fn, v.index);
    case ValueKind::kConstant: {
      if (v.index >= module.constants().size()) return OutOfRange("constant", v.index);
      const Constant& c = module.GetConstant(v.index);
      return c.ToString() + ":" + c.type.ToString();
    }
    case ValueKind::kGlobal:
      if (v.index >= module.globals.size()) return "@" + OutOfRange("global", v.index);
      return "@" + module.globals[v.index].name;
  }
  return "<bad>";
}

std::string PrintInstruction(const Module& module, const Function& fn, const Instruction& inst) {
  std::ostringstream os;
  if (inst.DefinesValue()) {
    os << RegName(fn, inst.result) << " = ";
  }
  os << OpcodeName(inst.op);
  switch (inst.op) {
    case Opcode::kICmp: os << ' ' << ICmpPredName(inst.icmp_pred); break;
    case Opcode::kFCmp: os << ' ' << FCmpPredName(inst.fcmp_pred); break;
    default: break;
  }
  if (inst.op == Opcode::kAlloca) {
    os << ' ' << inst.alloca_bytes << " bytes : " << inst.type.ToString();
    return os.str();
  }
  if (inst.op == Opcode::kCall) {
    os << (inst.is_intrinsic ? " @!" : " @")
       << (inst.is_intrinsic ? std::string(IntrinsicName(inst.intrinsic))
                         : inst.callee < module.functions.size()
                             ? module.functions[inst.callee].name
                             : OutOfRange("function", inst.callee))
       << '(';
    for (std::size_t i = 0; i < inst.operands.size(); ++i) {
      if (i) os << ", ";
      os << PrintValue(module, fn, inst.operands[i]);
    }
    os << ')';
    if (inst.DefinesValue()) os << " : " << inst.type.ToString();
    return os.str();
  }
  if (inst.op == Opcode::kPhi) {
    for (std::size_t i = 0; i < inst.operands.size(); ++i) {
      os << (i ? ", " : " ") << '[' << PrintValue(module, fn, inst.operands[i]) << ", "
         << (i < inst.phi_blocks.size() ? BlockName(fn, inst.phi_blocks[i]) : "<none>")
         << ']';
    }
    os << " : " << inst.type.ToString();
    return os.str();
  }
  for (std::size_t i = 0; i < inst.operands.size(); ++i) {
    os << (i ? ", " : " ") << PrintValue(module, fn, inst.operands[i]);
  }
  switch (inst.op) {
    case Opcode::kBr:
      os << ' ' << BlockName(fn, inst.bb_true);
      break;
    case Opcode::kCondBr:
      os << ", " << BlockName(fn, inst.bb_true) << ", " << BlockName(fn, inst.bb_false);
      break;
    case Opcode::kGep:
      os << " elem " << inst.gep_elem_bytes;
      break;
    case Opcode::kLoad:
    case Opcode::kStore:
      os << " align " << inst.align;
      break;
    default:
      break;
  }
  if (inst.DefinesValue()) os << " : " << inst.type.ToString();
  return os.str();
}

std::string PrintFunction(const Module& module, const Function& fn) {
  std::ostringstream os;
  os << "func @" << fn.name << '(';
  for (std::uint32_t i = 0; i < fn.num_params; ++i) {
    if (i) os << ", ";
    os << RegName(fn, i) << " : " << fn.registers[i].type.ToString();
  }
  os << ") -> " << fn.return_type.ToString() << " {\n";
  for (const auto& bb : fn.blocks) {
    os << bb.name << ":\n";
    for (const auto& inst : bb.instructions) {
      os << "  " << PrintInstruction(module, fn, inst) << '\n';
    }
  }
  os << "}\n";
  return os.str();
}

std::string PrintModule(const Module& module) {
  std::ostringstream os;
  for (const auto& g : module.globals) {
    os << "global @" << g.name << " : " << g.element_type.ToString() << " x " << g.count;
    if (!g.init.empty()) {
      // Initializer bytes as a hex blob so modules round-trip completely.
      os << " init ";
      static const char kHex[] = "0123456789abcdef";
      for (const std::uint8_t byte : g.init) {
        os << kHex[byte >> 4] << kHex[byte & 0xF];
      }
    }
    os << '\n';
  }
  for (const auto& fn : module.functions) {
    os << PrintFunction(module, fn);
  }
  return os.str();
}

}  // namespace epvf::ir
