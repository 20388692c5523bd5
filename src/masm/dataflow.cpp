#include "masm/dataflow.h"

#include <string_view>
#include <unordered_map>

namespace ferrum::masm {

InstIndex make_inst_index(const AsmProgram& program) {
  InstIndex index(program.functions.size());
  for (std::size_t f = 0; f < program.functions.size(); ++f) {
    const AsmFunction& fn = program.functions[f];
    index[f].resize(fn.blocks.size());
    for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
      index[f][b].assign(fn.blocks[b].insts.size(), -1);
    }
  }
  return index;
}

ProgramTables::ProgramTables(const AsmProgram& program) : program_(&program) {
  // Keys view the program's own strings, which outlive the tables.
  std::unordered_map<std::string_view, int> function_by_name;
  function_by_name.reserve(program.functions.size());
  for (std::size_t f = 0; f < program.functions.size(); ++f) {
    function_by_name.emplace(program.functions[f].name, static_cast<int>(f));
  }
  fns_.resize(program.functions.size());
  for (std::size_t f = 0; f < program.functions.size(); ++f) {
    const AsmFunction& fn = program.functions[f];
    std::unordered_map<std::string_view, int> block_by_label;
    block_by_label.reserve(fn.blocks.size());
    for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
      block_by_label.emplace(fn.blocks[b].label, static_cast<int>(b));
    }
    FnTable& t = fns_[f];
    t.block_base.reserve(fn.blocks.size());
    t.target.reserve(fn.inst_count());
    t.callee.reserve(fn.inst_count());
    t.detect.assign(fn.blocks.size(), false);
    for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
      const auto& insts = fn.blocks[b].insts;
      t.block_base.push_back(t.target.size());
      t.detect[b] = !insts.empty() && insts.front().op == Op::kDetectTrap;
      for (const AsmInst& inst : insts) {
        int target = -1;
        int callee = -1;
        if (inst.op == Op::kJmp || inst.op == Op::kJcc) {
          const auto it = block_by_label.find(inst.ops[0].label);
          if (it != block_by_label.end()) target = it->second;
        } else if (inst.op == Op::kCall) {
          // Builtins first, as in the decoder: a user function named
          // print_int is unreachable.
          const std::string& name = inst.ops[0].label;
          if (name == "print_int") {
            callee = kPrintInt;
          } else if (name == "print_f64") {
            callee = kPrintF64;
          } else {
            const auto it = function_by_name.find(name);
            if (it != function_by_name.end()) callee = it->second;
          }
        }
        t.target.push_back(target);
        t.callee.push_back(callee);
      }
    }
  }
}

}  // namespace ferrum::masm
