// ferrum-flow self-test. The analysis makes a one-directional promise —
// a site predicted masked or detected must never produce a dynamic SDC —
// so the tests pin the conservative side of every transfer rule:
//
//   - transfer/prediction unit tests on hand-written MiniASM fragments
//     (store data chains, branch feeds, address registers, main's return
//     value as program output, detector-targeted jumps, dead writes, and
//     the scalar-double chain that once slipped past check's benign
//     verdict);
//   - determinism: the serialized ferrum.flow.v1 document is
//     byte-identical across independent runs and unaffected by the
//     execution env knobs (FERRUM_JOBS/FERRUM_DISPATCH),
//     which have no channel into the static analysis;
//   - the selective planner: ordinal stability of the protectable-site
//     universe (selection outcomes cannot shift site identity), budget
//     arithmetic through the pipeline, and the protected-site count
//     matching the plan exactly.

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/check.h"
#include "check/flow.h"
#include "check/prune.h"
#include "check/sections.h"
#include "eddi/asm_protect.h"
#include "masm/parser.h"
#include "pipeline/pipeline.h"
#include "pipeline/selective.h"
#include "support/source_location.h"
#include "workloads/workloads.h"

namespace ferrum {
namespace {

using check::flow::FlowReport;
using check::flow::FlowSite;
using check::flow::Prediction;
using check::flow::PredictionBasis;
using pipeline::SelectiveOptions;
using pipeline::Technique;

FlowReport flow_text(const char* text) {
  DiagEngine diags;
  const masm::AsmProgram program = masm::parse_program(text, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.render();
  return check::flow::flow_program(program);
}

const FlowSite* site_of(const FlowReport& report, int block, int inst) {
  return report.find(/*function=*/0, block, inst);
}

// ------------------------------------------------ transfer functions --

// A value that reaches a store is sdc-vulnerable: memory is untracked,
// so the store stream counts as observable output.
TEST(FlowTransfer, StoreDataChainIsVulnerable) {
  const FlowReport flow = flow_text(
      "main:\n"
      ".entry:\n"
      "\tmovq\t$7, %rcx\n"
      "\tmovq\t%rcx, -8(%rsp)\n"
      "\tmovq\t$0, %rax\n"
      "\tret\n");
  const FlowSite* site = site_of(flow, 0, 0);
  ASSERT_NE(site, nullptr);
  EXPECT_EQ(site->prediction, Prediction::kSdcVulnerable);
  EXPECT_NE(site->sinks & check::flow::kSinkStore, 0);
}

// A write that is overwritten before any observation has no sinks —
// masked, on flow's own evidence.
TEST(FlowTransfer, DeadWriteIsMasked) {
  const FlowReport flow = flow_text(
      "main:\n"
      ".entry:\n"
      "\tmovq\t$7, %rcx\n"
      "\tmovq\t$8, %rcx\n"
      "\tmovq\t%rcx, %rax\n"
      "\tret\n");
  const FlowSite* site = site_of(flow, 0, 0);
  ASSERT_NE(site, nullptr);
  EXPECT_EQ(site->prediction, Prediction::kMasked);
}

// main's return value is program output: the rax write feeding ret is
// sdc-vulnerable via the seeded output sink.
TEST(FlowTransfer, MainReturnValueIsOutput) {
  const FlowReport flow = flow_text(
      "main:\n"
      ".entry:\n"
      "\tmovq\t$42, %rax\n"
      "\tret\n");
  const FlowSite* site = site_of(flow, 0, 0);
  ASSERT_NE(site, nullptr);
  EXPECT_EQ(site->prediction, Prediction::kSdcVulnerable);
  EXPECT_NE(site->sinks & check::flow::kSinkOutput, 0);
}

// A register consumed by a compare that steers a branch is crash-prone
// (control flow can diverge), and the branch decision itself is a
// crash-prone site when its target is not a detector.
TEST(FlowTransfer, BranchFeedIsCrashProne) {
  const FlowReport flow = flow_text(
      "main:\n"
      ".entry:\n"
      "\tmovq\t$3, %rcx\n"
      "\tcmpq\t$0, %rcx\n"
      "\tje\t.done\n"
      "\tjmp\t.done\n"
      ".done:\n"
      "\tmovq\t$0, %rax\n"
      "\tret\n");
  const FlowSite* feed = site_of(flow, 0, 0);  // rcx write
  ASSERT_NE(feed, nullptr);
  EXPECT_EQ(feed->prediction, Prediction::kCrashProne);
  const FlowSite* flags = site_of(flow, 0, 1);  // cmp flags write
  ASSERT_NE(flags, nullptr);
  EXPECT_EQ(flags->prediction, Prediction::kCrashProne);
  EXPECT_NE(flags->sinks & check::flow::kSinkBranch, 0);
  const FlowSite* branch = site_of(flow, 0, 2);  // jcc decision
  ASSERT_NE(branch, nullptr);
  EXPECT_EQ(branch->prediction, Prediction::kCrashProne);
}

// A branch whose target block opens with detecttrap is the detector
// dispatch itself: corrupting the decision fires the trap, so the site
// is predicted detected, not crash-prone.
TEST(FlowTransfer, DetectorBranchIsDetected) {
  const FlowReport flow = flow_text(
      "main:\n"
      ".entry:\n"
      "\tmovq\t$3, %rcx\n"
      "\tcmpq\t$3, %rcx\n"
      "\tjne\t.fault\n"
      "\tjmp\t.done\n"
      ".fault:\n"
      "\tcall\t__ferrum_detect\n"
      ".done:\n"
      "\tmovq\t$0, %rax\n"
      "\tret\n");
  const FlowSite* branch = site_of(flow, 0, 2);
  ASSERT_NE(branch, nullptr);
  EXPECT_EQ(branch->kind, masm::FaultSiteKind::kBranchDecision);
  EXPECT_EQ(branch->prediction, Prediction::kDetected);
  EXPECT_NE(branch->sinks & check::flow::kSinkDetect, 0);
}

// A register used to form a load address is crash-prone: a flipped
// address can fault the access.
TEST(FlowTransfer, AddressRegisterIsCrashProne) {
  const FlowReport flow = flow_text(
      "main:\n"
      ".entry:\n"
      "\tleaq\t-16(%rsp), %rcx\n"
      "\tmovq\t(%rcx), %rdx\n"
      "\tmovq\t$0, %rax\n"
      "\tret\n");
  const FlowSite* site = site_of(flow, 0, 0);
  ASSERT_NE(site, nullptr);
  EXPECT_EQ(site->prediction, Prediction::kCrashProne);
  EXPECT_NE(site->sinks & check::flow::kSinkAddress, 0);
}

// Regression: the scalar-double chain cvtsi2sd → divsd → movsd-to-memory
// must keep the whole chain sdc-vulnerable. ferrum-check's observation
// model calls these writes "never observed" (its scope is protection
// invariants), and an early flow version let that benign verdict
// override the store-sink evidence — the exhaustive audit promptly found
// dynamic SDCs on the sites. Check-benign may corroborate an empty sink
// mask, never veto a non-empty one.
TEST(FlowTransfer, ScalarDoubleStoreChainStaysVulnerable) {
  const FlowReport flow = flow_text(
      "main:\n"
      ".entry:\n"
      "\tmovq\t$6, %rcx\n"
      "\tcvtsi2sd\t%ecx, %xmm0\n"
      "\tmovsd\t%xmm0, %xmm1\n"
      "\tmovq\t$4613937818241073152, %rdx\n"
      "\tmovq\t%rdx, %xmm2\n"
      "\tdivsd\t%xmm2, %xmm1\n"
      "\tmovsd\t%xmm1, -8(%rsp)\n"
      "\tmovq\t$0, %rax\n"
      "\tret\n");
  for (const int inst : {0, 1, 2, 4, 5}) {
    const FlowSite* site = site_of(flow, 0, inst);
    ASSERT_NE(site, nullptr) << "inst " << inst;
    EXPECT_EQ(site->prediction, Prediction::kSdcVulnerable)
        << "inst " << inst;
  }
}

// ------------------------------------------------------- determinism --

// The flow document is a pure function of (program, options): two
// independent runs serialize byte-identically, and the runtime env knobs
// cannot perturb it — the analysis never reads them.
TEST(FlowDeterminism, SerializationIsStableAndKnobBlind) {
  const auto& workload = workloads::all().front();
  const auto build = pipeline::build(workload.source, Technique::kFerrum);

  setenv("FERRUM_JOBS", "1", 1);
  setenv("FERRUM_DISPATCH", "switch", 1);
  const FlowReport first = check::flow::flow_program(build.program);
  const std::string first_doc =
      check::flow::to_json(first, build.program).dump();

  setenv("FERRUM_JOBS", "8", 1);
  setenv("FERRUM_DISPATCH", "threaded", 1);
  const FlowReport second = check::flow::flow_program(build.program);
  const std::string second_doc =
      check::flow::to_json(second, build.program).dump();

  unsetenv("FERRUM_JOBS");
  unsetenv("FERRUM_DISPATCH");
  EXPECT_EQ(first_doc, second_doc);
  EXPECT_FALSE(first_doc.empty());
}

// Callers that already hold the check, prune and section reports (the
// lint=json and sites views) pass them in; the report must be the one
// the program-only form computes for itself.
TEST(FlowDeterminism, ReportOverloadMatchesProgramOnlyForm) {
  for (const workloads::Workload& workload : workloads::all()) {
    for (const Technique technique :
         {Technique::kNone, Technique::kIrEddi, Technique::kHybrid,
          Technique::kFerrum}) {
      const auto build = pipeline::build(workload.source, technique);
      for (const bool store_data : {false, true}) {
        const check::CheckReport checked =
            check::check_program(build.program, {store_data});
        const check::prune::PruneReport pruned =
            check::prune::prune_program(build.program, {store_data});
        const check::sections::SectionMap sections =
            check::sections::build_sections(build.program, {store_data},
                                            checked);
        const check::flow::FlowOptions options{store_data};
        EXPECT_EQ(
            check::flow::to_json(
                check::flow::flow_program(build.program, options, pruned,
                                          checked, sections),
                build.program)
                .dump(),
            check::flow::to_json(
                check::flow::flow_program(build.program, options),
                build.program)
                .dump())
            << workload.name << "/" << pipeline::technique_name(technique)
            << " store_data=" << store_data;
      }
    }
  }
}

TEST(FlowDeterminism, ReportOverloadRejectsMismatchedPruneKnob) {
  const auto build =
      pipeline::build(workloads::all().front().source, Technique::kNone);
  const check::CheckReport checked = check::check_program(build.program);
  const check::sections::SectionMap sections =
      check::sections::build_sections(build.program, {}, checked);
  const check::prune::PruneReport pruned =
      check::prune::prune_program(build.program, {true});
  EXPECT_THROW(check::flow::flow_program(build.program, {}, pruned, checked,
                                         sections),
               std::invalid_argument);
}

// ------------------------------------------------- selective planner --

// Site ordinals are a property of the program shape, not of any
// particular selection: a selector that records every ref it is offered
// sees the identical universe whether it keeps all, none, or half.
TEST(FlowSelective, OrdinalsAreSelectionIndependent) {
  const auto& workload = workloads::all().front();
  const auto build = pipeline::build(workload.source, Technique::kNone);
  const eddi::AsmProtectOptions options;
  const auto universe =
      eddi::enumerate_protectable_sites(build.program, options);
  ASSERT_FALSE(universe.empty());

  for (const int keep_mod : {1, 2, 0}) {  // all, half, none
    masm::AsmProgram scratch = build.program;
    std::vector<eddi::ProtectSiteRef> seen;
    eddi::AsmProtectOptions recording = options;
    recording.selector = [&seen, keep_mod](const eddi::ProtectSiteRef& ref) {
      seen.push_back(ref);
      return keep_mod != 0 && ref.ordinal % keep_mod == 0;
    };
    eddi::protect_asm(scratch, recording);
    ASSERT_EQ(seen.size(), universe.size()) << "keep_mod " << keep_mod;
    for (std::size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i].ordinal, universe[i].ordinal);
      EXPECT_EQ(seen[i].function, universe[i].function);
      EXPECT_EQ(seen[i].block, universe[i].block);
      EXPECT_EQ(seen[i].inst, universe[i].inst);
      EXPECT_EQ(seen[i].cluster, universe[i].cluster);
    }
  }
}

// The plan's budget arithmetic and the pipeline integration: the
// protection pass skips exactly the unselected sites, budget 1.0
// reproduces full FERRUM, and plans replay deterministically.
TEST(FlowSelective, PipelineProtectsExactlyThePlan) {
  const auto& workload = workloads::all().front();

  pipeline::BuildOptions full_options;
  const auto full =
      pipeline::build(workload.source, Technique::kFerrum, full_options);

  pipeline::BuildOptions half_options;
  half_options.selective.strategy = SelectiveOptions::Strategy::kAnalysis;
  half_options.selective.budget = 0.5;
  const auto half =
      pipeline::build(workload.source, Technique::kFerrum, half_options);
  const auto& plan = half.selective_plan;
  ASSERT_FALSE(plan.universe.empty());
  EXPECT_EQ(plan.selected.size(),
            static_cast<std::size_t>(plan.budget_sites));
  EXPECT_EQ(half.asm_stats.skipped_sites,
            plan.universe.size() - plan.selected.size());

  pipeline::BuildOptions all_options;
  all_options.selective.strategy = SelectiveOptions::Strategy::kAnalysis;
  all_options.selective.budget = 1.0;
  const auto all =
      pipeline::build(workload.source, Technique::kFerrum, all_options);
  EXPECT_EQ(all.selective_plan.selected.size(),
            all.selective_plan.universe.size());
  // Budget 1.0 selects every site, so the emitted program is the full
  // FERRUM program, byte for byte.
  EXPECT_EQ(masm::print(all.program), masm::print(full.program));

  const auto replay =
      pipeline::build(workload.source, Technique::kFerrum, half_options);
  EXPECT_EQ(masm::print(replay.program), masm::print(half.program));
}

// Random plans with different seeds draw different prefixes but the same
// universe; the same seed replays exactly.
TEST(FlowSelective, RandomStrategyIsSeedDeterministic) {
  const auto& workload = workloads::all().front();
  const auto build = pipeline::build(workload.source, Technique::kNone);
  const eddi::AsmProtectOptions protect_options;

  SelectiveOptions options;
  options.strategy = SelectiveOptions::Strategy::kRandom;
  options.budget = 0.5;
  options.seed = 7;
  const auto a =
      pipeline::plan_selective(build.program, options, protect_options);
  const auto b =
      pipeline::plan_selective(build.program, options, protect_options);
  EXPECT_EQ(a.selected, b.selected);

  options.seed = 8;
  const auto c =
      pipeline::plan_selective(build.program, options, protect_options);
  EXPECT_EQ(c.selected.size(), a.selected.size());
  EXPECT_NE(c.selected, a.selected);
}

}  // namespace
}  // namespace ferrum
