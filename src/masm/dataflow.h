// The control-transfer table and the interprocedural backward solver
// shared by the static analyses (prune's dead bits, flow's sink
// reachability, sections' site counts).
//
// ProgramTables resolves, once per program, what the VM's decoder
// resolves at load time, and in the same way: jcc/jmp labels to block
// indices (-1 when unresolved: the VM traps on that edge), call labels
// to the print builtins (checked first) or a function index (the first
// of a name wins), detect-trap blocks, and which calls push a return
// address.
//
// BackwardSolver<State, Transfer> runs everything but the lattice and
// the per-instruction transfer: the block walk, the per-function
// round-robin fixpoint (blocks swept last to first, free fall-through
// into block b+1, bottom past the last block), the bottom-up summary
// fixpoint (each function's entry state under a list of exit seeds), the
// top-down return-context fixpoint seeded at main, and the static site
// enumeration. `State` needs a bottom default constructor, `join` and
// `==`; `Transfer` is a callable
//   void(const Frame<State>& at, const AsmInst& inst, State& s)
// turning the state after `inst` into the state before it. The sweep
// order is fixed, so results depend only on the program and the seeds.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "masm/fault_site.h"
#include "masm/masm.h"

namespace ferrum::masm {

/// A per-instruction table shaped like a program, indexed
/// [function][block][inst] and filled with -1.
using InstIndex = std::vector<std::vector<std::vector<std::int32_t>>>;
InstIndex make_inst_index(const AsmProgram& program);

class ProgramTables {
 public:
  /// Codes target() and callee() return besides an index.
  static constexpr int kUnresolved = -1;
  static constexpr int kPrintInt = -2;
  static constexpr int kPrintF64 = -3;

  explicit ProgramTables(const AsmProgram& program);

  const AsmProgram& program() const { return *program_; }
  int function_count() const { return static_cast<int>(fns_.size()); }
  const std::vector<AsmInst>& insts(int f, int b) const {
    return program_->functions[static_cast<std::size_t>(f)]
        .blocks[static_cast<std::size_t>(b)]
        .insts;
  }

  /// jcc/jmp: the target block, or kUnresolved. -1 for other ops.
  int target(int f, int b, int i) const { return fn(f).target[slot(f, b, i)]; }
  /// call: a function index, kPrintInt, kPrintF64 or kUnresolved. -1 for
  /// other ops.
  int callee(int f, int b, int i) const { return fn(f).callee[slot(f, b, i)]; }
  /// A call pushes a return address only when it resolves to a user
  /// function: a print builtin returns before the push, an unresolved
  /// callee traps before it. Other ops answer true (static_site_of's
  /// default).
  bool pushes_ret(int f, int b, int i) const {
    return insts(f, b)[static_cast<std::size_t>(i)].op != Op::kCall ||
           callee(f, b, i) >= 0;
  }
  /// The block starts with kDetectTrap: a jcc into it is a detector
  /// firing, not an outcome-steering branch.
  bool detect_block(int f, int b) const {
    return fn(f).detect[static_cast<std::size_t>(b)];
  }
  /// The fault site one executed instance of the instruction registers.
  StaticSiteInfo site_of(int f, int b, int i, bool store_data) const {
    return static_site_of(insts(f, b)[static_cast<std::size_t>(i)],
                          store_data, pushes_ret(f, b, i));
  }

 private:
  struct FnTable {
    std::vector<std::size_t> block_base;  // first slot of each block
    std::vector<std::int32_t> target;     // one slot per instruction
    std::vector<std::int32_t> callee;
    std::vector<bool> detect;             // per block
  };
  const FnTable& fn(int f) const { return fns_[static_cast<std::size_t>(f)]; }
  std::size_t slot(int f, int b, int i) const {
    return fn(f).block_base[static_cast<std::size_t>(b)] +
           static_cast<std::size_t>(i);
  }

  const AsmProgram* program_;
  std::vector<FnTable> fns_;
};

/// What a transfer may consult besides the instruction: its coordinates,
/// the tables, its function's current block-entry states, the state past
/// a ret, and the callee summaries.
template <typename State>
struct Frame {
  const ProgramTables& tables;
  int function = 0;
  int block = 0;
  int inst = 0;
  const std::vector<State>* block_in = nullptr;
  const State* exit = nullptr;
  const std::vector<std::vector<State>>* summaries = nullptr;

  int target() const { return tables.target(function, block, inst); }
  int callee() const { return tables.callee(function, block, inst); }
  const State& in(int b) const {
    return (*block_in)[static_cast<std::size_t>(b)];
  }
  /// Function f's entry states, one per summary exit seed.
  const std::vector<State>& summary(int f) const {
    return (*summaries)[static_cast<std::size_t>(f)];
  }
};

template <typename State, typename Transfer>
class BackwardSolver {
 public:
  explicit BackwardSolver(const ProgramTables& tables, Transfer transfer = {})
      : tables_(tables), transfer_(std::move(transfer)) {}

  /// The summary fixpoint under `summary_exits`, then the context
  /// fixpoint: every function named main starts from `main_exit`, and
  /// each resolved call site of g joins its after-call state into g's.
  void solve(const std::vector<State>& summary_exits, const State& main_exit) {
    const std::size_t nfuncs = static_cast<std::size_t>(tables_.function_count());
    summaries_.assign(nfuncs, std::vector<State>(summary_exits.size()));
    for (bool changed = true; changed;) {
      changed = false;
      for (int f = 0; f < static_cast<int>(nfuncs); ++f) {
        std::vector<State> entry;
        for (const State& exit : summary_exits) {
          std::vector<State> in = analyze_function(f, exit);
          entry.push_back(in.empty() ? State{} : std::move(in.front()));
        }
        if (!(summaries_[static_cast<std::size_t>(f)] == entry)) {
          summaries_[static_cast<std::size_t>(f)] = std::move(entry);
          changed = true;
        }
      }
    }

    contexts_.assign(nfuncs, State{});
    block_in_.assign(nfuncs, {});
    for (std::size_t f = 0; f < nfuncs; ++f) {
      if (tables_.program().functions[f].name == "main") {
        contexts_[f] = main_exit;
      }
    }
    for (bool changed = true; changed;) {
      changed = false;
      for (int f = 0; f < static_cast<int>(nfuncs); ++f) {
        // A copy: a recursive call below may grow f's own context, which
        // must not leak into this pass over f.
        const State exit = contexts_[static_cast<std::size_t>(f)];
        std::vector<State>& in = block_in_[static_cast<std::size_t>(f)];
        in = analyze_function(f, exit);
        Frame<State> at = frame(f, in, exit);
        for (int b = 0; b < static_cast<int>(in.size()); ++b) {
          walk_block(at, b, [&](int i, const State& after) {
            const int callee = tables_.callee(f, b, i);
            if (tables_.insts(f, b)[static_cast<std::size_t>(i)].op !=
                    Op::kCall ||
                callee < 0) {
              return;
            }
            State& context = contexts_[static_cast<std::size_t>(callee)];
            State joined = context;
            joined.join(after);
            if (!(joined == context)) {
              context = std::move(joined);
              changed = true;
            }
          });
        }
      }
    }
    // The last sweep changed nothing, so block_in_ holds every function's
    // entry states under its final context.
  }

  /// Visits every static fault site in program order as
  /// visit(f, b, i, info, after), `after` being the state after the
  /// instruction under the function's final context. Only one block's
  /// after-states are alive at a time.
  template <typename Visit>
  void for_each_site(bool store_data, Visit&& visit) const {
    std::vector<State> after;
    for (int f = 0; f < tables_.function_count(); ++f) {
      const std::vector<State>& in = block_in_[static_cast<std::size_t>(f)];
      Frame<State> at = frame(f, in, contexts_[static_cast<std::size_t>(f)]);
      for (int b = 0; b < static_cast<int>(in.size()); ++b) {
        after.resize(tables_.insts(f, b).size());
        walk_block(at, b, [&](int i, const State& s) {
          after[static_cast<std::size_t>(i)] = s;
        });
        for (int i = 0; i < static_cast<int>(after.size()); ++i) {
          const StaticSiteInfo info = tables_.site_of(f, b, i, store_data);
          if (info.has_site) {
            visit(f, b, i, info, after[static_cast<std::size_t>(i)]);
          }
        }
      }
    }
  }

 private:
  Frame<State> frame(int f, const std::vector<State>& block_in,
                     const State& exit) const {
    Frame<State> at{tables_};
    at.function = f;
    at.block_in = &block_in;
    at.exit = &exit;
    at.summaries = &summaries_;
    return at;
  }

  /// One backward sweep of block b, starting from block b+1's entry state
  /// (bottom past the last block: falling off traps). observe(i, after)
  /// sees each after-state before instruction i's transfer. Returns the
  /// block's entry state.
  template <typename Observe>
  State walk_block(Frame<State>& at, int b, Observe&& observe) const {
    const std::vector<State>& in = *at.block_in;
    State s = static_cast<std::size_t>(b) + 1 < in.size()
                  ? in[static_cast<std::size_t>(b) + 1]
                  : State{};
    at.block = b;
    const std::vector<AsmInst>& insts = tables_.insts(at.function, b);
    for (int i = static_cast<int>(insts.size()) - 1; i >= 0; --i) {
      observe(i, s);
      at.inst = i;
      transfer_(at, insts[static_cast<std::size_t>(i)], s);
    }
    return s;
  }

  /// Round-robin backward fixpoint over f's blocks, from bottom.
  std::vector<State> analyze_function(int f, const State& exit) const {
    std::vector<State> in(
        tables_.program().functions[static_cast<std::size_t>(f)].blocks.size());
    Frame<State> at = frame(f, in, exit);
    for (bool changed = true; changed;) {
      changed = false;
      for (int b = static_cast<int>(in.size()) - 1; b >= 0; --b) {
        State entry = walk_block(at, b, [](int, const State&) {});
        if (!(entry == in[static_cast<std::size_t>(b)])) {
          in[static_cast<std::size_t>(b)] = std::move(entry);
          changed = true;
        }
      }
    }
    return in;
  }

  const ProgramTables& tables_;
  Transfer transfer_;
  std::vector<std::vector<State>> summaries_;  // [function][exit seed]
  std::vector<State> contexts_;                // what f's rets feed
  std::vector<std::vector<State>> block_in_;   // under the final contexts
};

}  // namespace ferrum::masm
