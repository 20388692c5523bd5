// masm/dataflow: the control-transfer table and the backward solver, on
// hand-built programs whose resolution and liveness can be read off by
// eye.
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "masm/dataflow.h"

namespace ferrum::masm {
namespace {

AsmInst mov_imm(std::int64_t value, Gpr dst) {
  return AsmInst(Op::kMov, {Operand::make_imm(value), Operand::make_reg(dst)});
}
AsmInst mov_reg(Gpr src, Gpr dst) {
  return AsmInst(Op::kMov, {Operand::make_reg(src), Operand::make_reg(dst)});
}
AsmInst call(const std::string& callee) {
  return AsmInst(Op::kCall, {Operand::make_func(callee)});
}
AsmInst jump(Op op, const std::string& label) {
  return op == Op::kJcc ? AsmInst(Op::kJcc, Cond::kE,
                                  {Operand::make_label(label)})
                        : AsmInst(op, {Operand::make_label(label)});
}
AsmInst ret() { return AsmInst(Op::kRet, {}); }

AsmFunction function(const std::string& name, std::vector<AsmBlock> blocks) {
  AsmFunction fn;
  fn.name = name;
  fn.blocks = std::move(blocks);
  return fn;
}

TEST(ProgramTables, JumpTargetsResolveToBlocksOrMinusOne) {
  AsmProgram program;
  program.functions.push_back(function(
      "main", {{"entry", {jump(Op::kJcc, "exit"), jump(Op::kJcc, "nowhere"),
                          jump(Op::kJmp, "missing")}},
               {"exit", {mov_imm(0, Gpr::kRax), ret()}}}));
  const ProgramTables tables(program);
  EXPECT_EQ(tables.target(0, 0, 0), 1);
  EXPECT_EQ(tables.target(0, 0, 1), ProgramTables::kUnresolved);
  EXPECT_EQ(tables.target(0, 0, 2), -1);
  EXPECT_EQ(tables.target(0, 1, 0), -1);  // not a jump
  EXPECT_EQ(tables.callee(0, 0, 0), -1);  // not a call
}

TEST(ProgramTables, UnknownCalleeIsUnresolvedAndPushesNoReturnAddress) {
  AsmProgram program;
  program.functions.push_back(
      function("main", {{"entry", {call("absent"), ret()}}}));
  const ProgramTables tables(program);
  EXPECT_EQ(tables.callee(0, 0, 0), ProgramTables::kUnresolved);
  EXPECT_FALSE(tables.pushes_ret(0, 0, 0));
  // The trapping call registers no return-address store site.
  EXPECT_FALSE(tables.site_of(0, 0, 0, /*store_data=*/true).has_site);
  EXPECT_TRUE(tables.pushes_ret(0, 0, 1));  // non-calls answer true
}

TEST(ProgramTables, PrintBuiltinWinsOverAUserFunctionOfTheSameName) {
  AsmProgram program;
  program.functions.push_back(function(
      "main", {{"entry", {call("print_int"), call("print_f64"), ret()}}}));
  program.functions.push_back(
      function("print_int", {{"entry", {mov_imm(1, Gpr::kRax), ret()}}}));
  const ProgramTables tables(program);
  EXPECT_EQ(tables.callee(0, 0, 0), ProgramTables::kPrintInt);
  EXPECT_EQ(tables.callee(0, 0, 1), ProgramTables::kPrintF64);
  EXPECT_FALSE(tables.pushes_ret(0, 0, 0));
  EXPECT_FALSE(tables.pushes_ret(0, 0, 1));
}

TEST(ProgramTables, DetectTrapBlocksAreFlagged) {
  AsmProgram program;
  program.functions.push_back(function(
      "main", {{"entry", {jump(Op::kJcc, "detect"), ret()}},
               {"detect", {AsmInst(Op::kDetectTrap, {})}},
               {"late", {mov_imm(0, Gpr::kRax), AsmInst(Op::kDetectTrap, {})}},
               {"empty", {}}}));
  const ProgramTables tables(program);
  EXPECT_FALSE(tables.detect_block(0, 0));
  EXPECT_TRUE(tables.detect_block(0, 1));
  EXPECT_FALSE(tables.detect_block(0, 2));  // the trap must come first
  EXPECT_FALSE(tables.detect_block(0, 3));
}

TEST(ProgramTables, ResolvedUserCallPushesReturnAddress) {
  AsmProgram program;
  program.functions.push_back(
      function("main", {{"entry", {call("helper"), ret()}}}));
  program.functions.push_back(
      function("helper", {{"entry", {ret()}}}));
  const ProgramTables tables(program);
  EXPECT_EQ(tables.callee(0, 0, 0), 1);
  EXPECT_TRUE(tables.pushes_ret(0, 0, 0));
  const StaticSiteInfo site = tables.site_of(0, 0, 0, /*store_data=*/true);
  EXPECT_TRUE(site.has_site);
  EXPECT_EQ(site.kind, FaultSiteKind::kStoreData);
}

TEST(InstIndex, IsShapedLikeTheProgram) {
  AsmProgram program;
  program.functions.push_back(function(
      "main", {{"a", {ret()}}, {"b", {}}, {"c", {ret(), ret(), ret()}}}));
  const InstIndex index = make_inst_index(program);
  ASSERT_EQ(index.size(), 1u);
  ASSERT_EQ(index[0].size(), 3u);
  EXPECT_EQ(index[0][0], std::vector<std::int32_t>({-1}));
  EXPECT_TRUE(index[0][1].empty());
  EXPECT_EQ(index[0][2], std::vector<std::int32_t>({-1, -1, -1}));
}

// ------------------------------------------------------------- solver --

/// Whole-register GPR liveness: the smallest lattice that exercises every
/// part of the solver (jumps, calls through summaries, rets through
/// contexts).
struct Regs {
  std::uint32_t live = 0;
  bool operator==(const Regs& o) const { return live == o.live; }
  void join(const Regs& o) { live |= o.live; }
};

std::uint32_t bit(Gpr reg) { return 1u << static_cast<int>(reg); }

struct RegsTransfer {
  void operator()(const Frame<Regs>& at, const AsmInst& inst,
                  Regs& s) const {
    switch (inst.op) {
      case Op::kMov:
        s.live &= ~bit(inst.ops[1].reg);
        if (inst.ops[0].is_reg()) s.live |= bit(inst.ops[0].reg);
        return;
      case Op::kJcc:
        if (at.target() >= 0) s.join(at.in(at.target()));
        return;
      case Op::kJmp:
        s = at.target() >= 0 ? at.in(at.target()) : Regs{};
        return;
      case Op::kCall:
        if (at.callee() == ProgramTables::kPrintInt) {
          s.live |= bit(Gpr::kRdi);
        } else if (at.callee() < 0) {
          s = Regs{};
        } else {
          const std::vector<Regs>& sum = at.summary(at.callee());
          s.live = sum[0].live | (s.live & sum[1].live);
        }
        return;
      case Op::kRet:
        s = *at.exit;
        return;
      default:
        return;
    }
  }
};

TEST(BackwardSolver, ComposesSummariesAndReturnContexts) {
  // main: rdi = 5; call get; rdi = rax; print_int; rax = 0; ret
  // get:  loop: rax = 7; rcx = 9; je loop; ret
  AsmProgram program;
  program.functions.push_back(function(
      "main", {{"entry",
                {mov_imm(5, Gpr::kRdi), call("get"), mov_reg(Gpr::kRax, Gpr::kRdi),
                 call("print_int"), mov_imm(0, Gpr::kRax), ret()}}}));
  program.functions.push_back(function(
      "get", {{"loop", {mov_imm(7, Gpr::kRax), mov_imm(9, Gpr::kRcx),
                        jump(Op::kJcc, "loop")}},
              {"done", {ret()}}}));
  const ProgramTables tables(program);
  BackwardSolver<Regs, RegsTransfer> solver(tables);
  solver.solve({Regs{}, Regs{~0u}}, Regs{bit(Gpr::kRax)});

  std::map<std::tuple<int, int, int>, std::uint32_t> after;
  std::vector<std::tuple<int, int, int>> order;
  solver.for_each_site(false, [&](int f, int b, int i,
                                  const StaticSiteInfo& info,
                                  const Regs& state) {
    EXPECT_TRUE(info.has_site);
    order.emplace_back(f, b, i);
    after[{f, b, i}] = state.live;
  });
  const auto live_after = [&](int f, int b, int i) {
    return after[std::make_tuple(f, b, i)];
  };
  // Every gpr write and the jcc's decision is a site (the calls push no
  // store-data site with store_data off), visited in program order.
  const std::vector<std::tuple<int, int, int>> expected_order = {
      {0, 0, 0}, {0, 0, 2}, {0, 0, 4}, {1, 0, 0}, {1, 0, 1}, {1, 0, 2}};
  EXPECT_EQ(order, expected_order);
  // get reads nothing, so main's rdi = 5 is dead across the call.
  EXPECT_EQ(live_after(0, 0, 0), 0u);
  EXPECT_EQ(live_after(0, 0, 2), bit(Gpr::kRdi));
  EXPECT_EQ(live_after(0, 0, 4), bit(Gpr::kRax));  // main's exit observes rax
  // get's context is main's after-call state {rax}: its rax write is
  // live, its rcx write dead, around the loop back edge too.
  EXPECT_EQ(live_after(1, 0, 0), bit(Gpr::kRax));
  EXPECT_EQ(live_after(1, 0, 1), bit(Gpr::kRax));
}

}  // namespace
}  // namespace ferrum::masm
