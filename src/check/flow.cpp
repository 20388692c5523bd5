#include "check/flow.h"

#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "check/check.h"
#include "check/prune.h"
#include "check/sections.h"
#include "masm/dataflow.h"

namespace ferrum::check::flow {
namespace {

using masm::AsmInst;
using masm::AsmProgram;
using masm::FaultSiteKind;
using masm::Gpr;
using masm::MemRef;
using masm::Op;
using masm::Operand;

// ---------------------------------------------------------- flow state --

// Tracked locations: 16 GPRs, 16 XMM registers x 4 64-bit lanes (the
// full YMM backing store, matching prune's granularity), RFLAGS.
constexpr int kGprLocBase = 0;
constexpr int kXmmLocBase = masm::kGprCount;                      // 16
constexpr int kFlagsLoc = kXmmLocBase + masm::kXmmCount * 4;      // 80
constexpr int kLocCount = kFlagsLoc + 1;                          // 81

constexpr int gpr_loc(Gpr reg) {
  return kGprLocBase + static_cast<int>(reg);
}
constexpr int xmm_loc(int xmm, int lane) {
  return kXmmLocBase + xmm * 4 + lane;
}

/// One location's flow fact: the sinks its current value can still reach,
/// plus the exit locations it can flow into by function return (the exit
/// mask is populated only during summary construction — concrete passes
/// seed rets with sink-only contexts, so it stays empty there).
struct Cell {
  std::uint64_t exit_lo = 0;  // exit locations 0..63
  std::uint32_t exit_hi = 0;  // exit locations 64..80
  std::uint16_t sinks = 0;

  bool operator==(const Cell& o) const {
    return exit_lo == o.exit_lo && exit_hi == o.exit_hi && sinks == o.sinks;
  }
  bool empty() const { return exit_lo == 0 && exit_hi == 0 && sinks == 0; }
  void merge(const Cell& o) {
    exit_lo |= o.exit_lo;
    exit_hi |= o.exit_hi;
    sinks |= o.sinks;
  }
  static Cell sink(std::uint16_t mask) {
    Cell c;
    c.sinks = mask;
    return c;
  }
  static Cell exit_of(int loc) {
    Cell c;
    if (loc < 64) {
      c.exit_lo = std::uint64_t{1} << loc;
    } else {
      c.exit_hi = std::uint32_t{1} << (loc - 64);
    }
    return c;
  }
};

/// Per-program-point state: loc -> where its current value can flow.
struct FlowState {
  std::array<Cell, kLocCount> loc{};

  bool operator==(const FlowState& o) const { return loc == o.loc; }
  void join(const FlowState& o) {
    for (int l = 0; l < kLocCount; ++l) loc[l].merge(o.loc[l]);
  }
  /// The summary-pass exit seed: every location flows to itself at ret.
  static FlowState identity_exits() {
    FlowState s;
    for (int l = 0; l < kLocCount; ++l) s.loc[l] = Cell::exit_of(l);
    return s;
  }
};

/// Expands a summary cell against the caller's after-call state: the
/// callee's intrinsic sinks plus, for every exit location the value can
/// reach, whatever the caller lets flow from there.
Cell expand(const Cell& summary, const FlowState& after) {
  Cell out = Cell::sink(summary.sinks);
  std::uint64_t lo = summary.exit_lo;
  while (lo != 0) {
    const int e = __builtin_ctzll(lo);
    lo &= lo - 1;
    out.merge(after.loc[e]);
  }
  std::uint32_t hi = summary.exit_hi;
  while (hi != 0) {
    const int e = 64 + __builtin_ctz(hi);
    hi &= hi - 1;
    out.merge(after.loc[e]);
  }
  return out;
}

// ----------------------------------------------------- transfer helpers --

void read_gpr(FlowState& s, Gpr reg, const Cell& gen) {
  if (reg != Gpr::kNone) s.loc[gpr_loc(reg)].merge(gen);
}

void read_xmm_lane(FlowState& s, int xmm, int lane, const Cell& gen) {
  s.loc[xmm_loc(xmm, lane)].merge(gen);
}

/// Memory address registers: the address value both selects the accessed
/// cell (gen flows through a load's result / a store's destination) and
/// can trap — callers fold kSinkAddress into gen.
void read_mem(FlowState& s, const MemRef& mem, const Cell& gen) {
  read_gpr(s, mem.base, gen);
  read_gpr(s, mem.index, gen);
}

/// Generic operand read (GPR at any width — a corrupted narrow value
/// still flows — memory addresses with the address sink, XMM operands
/// whole-register). Immediates and labels read nothing.
void read_operand(FlowState& s, const Operand& op, const Cell& gen) {
  switch (op.kind) {
    case Operand::Kind::kReg:
      read_gpr(s, op.reg, gen);
      return;
    case Operand::Kind::kMem: {
      Cell addr = gen;
      addr.sinks |= kSinkAddress;
      read_mem(s, op.mem, addr);
      return;
    }
    case Operand::Kind::kXmm:
      for (int l = 0; l < 4; ++l) read_xmm_lane(s, op.xmm, l, gen);
      return;
    default:
      return;
  }
}

/// Scalar-double source: xmm low lane or a memory/GPR operand.
void read_scalar_src(FlowState& s, const Operand& op, const Cell& gen) {
  if (op.is_xmm()) {
    read_xmm_lane(s, op.xmm, 0, gen);
  } else {
    read_operand(s, op, gen);
  }
}

/// Mirrors merged_gpr_value: 32/64-bit writes replace the whole register
/// (a kill), 8-bit writes merge (the old upper bits survive — no kill).
void kill_gpr(FlowState& s, Gpr reg, int width) {
  if (reg == Gpr::kNone || width == 1) return;
  s.loc[gpr_loc(reg)] = Cell{};
}

/// The destination-flow generator of a GPR write: whatever the post-state
/// lets the written value reach, plus the stack-pointer sink when the
/// destination steers the frame.
Cell gpr_write_gen(const FlowState& s, Gpr reg) {
  Cell gen = s.loc[gpr_loc(reg)];
  if (reg == Gpr::kRsp || reg == Gpr::kRbp) gen.sinks |= kSinkStackPtr;
  return gen;
}

// ------------------------------------------------------------- transfer --

/// Backward transfer of one instruction: s holds the flow state *after*
/// the instruction on entry and *before* it on exit. Destination flow is
/// read off the post-state first, full overwrites are killed, then every
/// read location absorbs the generated flow plus the instruction's
/// intrinsic sinks.
struct SinkFlowTransfer {
  void operator()(const masm::Frame<FlowState>& at, const AsmInst& inst,
                  FlowState& s) const {
    switch (inst.op) {
      case Op::kMov:
        if (inst.ops[1].is_mem()) {
          // Store: the data enters the (untracked) store stream; the
          // address selects which cell is corrupted.
          Cell addr = Cell::sink(kSinkStore | kSinkAddress);
          read_mem(s, inst.ops[1].mem, addr);
          read_operand(s, inst.ops[0], Cell::sink(kSinkStore));
        } else {
          const Cell gen = gpr_write_gen(s, inst.ops[1].reg);
          kill_gpr(s, inst.ops[1].reg, inst.ops[1].width);
          read_operand(s, inst.ops[0], gen);
        }
        return;
      case Op::kMovsx:
      case Op::kMovzx: {
        const Cell gen = gpr_write_gen(s, inst.ops[1].reg);
        kill_gpr(s, inst.ops[1].reg, inst.ops[1].width);
        read_operand(s, inst.ops[0], gen);
        return;
      }
      case Op::kLea: {
        // Pure address arithmetic: the inputs flow into the destination
        // but nothing is dereferenced here — any address sink attaches at
        // the eventual access.
        const Cell gen = gpr_write_gen(s, inst.ops[1].reg);
        kill_gpr(s, inst.ops[1].reg, 8);
        read_mem(s, inst.ops[0].mem, gen);
        return;
      }
      case Op::kPush: {
        // Store of the source at [rsp-8]; rsp is read (address + bump)
        // and rewritten from its old value.
        Cell rsp = gpr_write_gen(s, Gpr::kRsp);
        rsp.sinks |= kSinkStore | kSinkAddress;
        read_gpr(s, Gpr::kRsp, rsp);
        read_operand(s, inst.ops[0], Cell::sink(kSinkStore));
        return;
      }
      case Op::kPop: {
        // Load from [rsp]: the stack address selects the value landing in
        // the destination; rsp is also rewritten from its old value.
        const Cell gen = gpr_write_gen(s, inst.ops[0].reg);
        kill_gpr(s, inst.ops[0].reg, 8);
        Cell rsp = gpr_write_gen(s, Gpr::kRsp);
        rsp.merge(gen);
        rsp.sinks |= kSinkAddress;
        read_gpr(s, Gpr::kRsp, rsp);
        return;
      }
      case Op::kAdd: case Op::kSub: case Op::kImul: case Op::kAnd:
      case Op::kOr: case Op::kXor: case Op::kShl: case Op::kSar:
      case Op::kIdiv: case Op::kIrem: {
        const bool traps = inst.op == Op::kIdiv || inst.op == Op::kIrem;
        Cell gen = s.loc[kFlagsLoc];  // the computed flags flow from inputs
        s.loc[kFlagsLoc] = Cell{};    // every ALU op replaces the flag set
        if (inst.ops[1].is_mem()) {
          Cell addr = Cell::sink(kSinkStore | kSinkAddress);
          addr.merge(gen);
          read_mem(s, inst.ops[1].mem, addr);
          gen.sinks |= kSinkStore;  // RMW store of the result
        } else {
          gen.merge(gpr_write_gen(s, inst.ops[1].reg));
          kill_gpr(s, inst.ops[1].reg, inst.ops[1].width);
        }
        if (traps) gen.sinks |= kSinkTrap;  // #DE on a corrupted divisor
        if (!inst.ops[1].is_mem()) {
          read_gpr(s, inst.ops[1].reg, gen);  // RMW read
        }
        read_operand(s, inst.ops[0], gen);
        return;
      }
      case Op::kCmp:
      case Op::kTest: {
        const Cell gen = s.loc[kFlagsLoc];
        s.loc[kFlagsLoc] = Cell{};
        read_operand(s, inst.ops[0], gen);
        read_operand(s, inst.ops[1], gen);
        return;
      }
      case Op::kSetcc:
        if (inst.ops[0].is_mem()) {
          Cell addr = Cell::sink(kSinkStore | kSinkAddress);
          read_mem(s, inst.ops[0].mem, addr);
          s.loc[kFlagsLoc].merge(Cell::sink(kSinkStore));
        } else {
          // 1-byte merge: no kill; the captured condition flows wherever
          // the destination byte flows.
          s.loc[kFlagsLoc].merge(gpr_write_gen(s, inst.ops[0].reg));
        }
        return;
      case Op::kJcc: {
        // s currently holds the fall-through state; join the taken edge.
        // A branch into the detect block is the detector firing; any
        // other resolution steers control flow.
        const int target = at.target();
        std::uint16_t sink = kSinkBranch;
        if (target >= 0) {
          s.join(at.in(target));
          if (at.tables.detect_block(at.function, target)) {
            sink = kSinkDetect;
          }
        }
        s.loc[kFlagsLoc].merge(Cell::sink(sink));
        return;
      }
      case Op::kJmp: {
        const int target = at.target();
        s = target >= 0 ? at.in(target) : FlowState{};
        return;
      }
      case Op::kCall: {
        const int callee = at.callee();
        if (callee == masm::ProgramTables::kPrintInt) {
          read_gpr(s, Gpr::kRdi, Cell::sink(kSinkOutput));
          return;
        }
        if (callee == masm::ProgramTables::kPrintF64) {
          read_xmm_lane(s, 0, 0, Cell::sink(kSinkOutput));
          return;
        }
        if (callee < 0) {
          s = FlowState{};  // unknown callee traps before any effect
          return;
        }
        // Compose the callee summary with the caller's after-call state.
        // Locations the callee overwrites on every path have no exit
        // entry for their own value, so clobbers fall out for free.
        const FlowState& sum = at.summary(callee).front();
        FlowState before;
        for (int l = 0; l < kLocCount; ++l) {
          before.loc[l] = expand(sum.loc[l], s);
        }
        s = before;
        Cell rsp = Cell::sink(kSinkStore | kSinkAddress);  // ret-addr push
        rsp.merge(s.loc[gpr_loc(Gpr::kRsp)]);
        s.loc[gpr_loc(Gpr::kRsp)] = rsp;
        return;
      }
      case Op::kRet:
        s = *at.exit;
        s.loc[gpr_loc(Gpr::kRsp)].merge(Cell::sink(kSinkAddress));  // the pop
        return;
      case Op::kDetectTrap:
        s = FlowState{};  // never returns
        return;
      case Op::kMovsd:
        if (inst.ops[1].is_xmm()) {
          const Cell gen = s.loc[xmm_loc(inst.ops[1].xmm, 0)];
          s.loc[xmm_loc(inst.ops[1].xmm, 0)] = Cell{};
          read_scalar_src(s, inst.ops[0], gen);
        } else {
          Cell addr = Cell::sink(kSinkStore | kSinkAddress);
          read_mem(s, inst.ops[1].mem, addr);
          read_xmm_lane(s, inst.ops[0].xmm, 0, Cell::sink(kSinkStore));
        }
        return;
      case Op::kAddsd: case Op::kSubsd: case Op::kMulsd: case Op::kDivsd: {
        Cell gen = s.loc[xmm_loc(inst.ops[1].xmm, 0)];
        s.loc[xmm_loc(inst.ops[1].xmm, 0)] = Cell{};
        read_xmm_lane(s, inst.ops[1].xmm, 0, gen);  // RMW read
        read_scalar_src(s, inst.ops[0], gen);
        return;
      }
      case Op::kSqrtsd: {
        const Cell gen = s.loc[xmm_loc(inst.ops[1].xmm, 0)];
        s.loc[xmm_loc(inst.ops[1].xmm, 0)] = Cell{};
        read_scalar_src(s, inst.ops[0], gen);
        return;
      }
      case Op::kUcomisd: {
        const Cell gen = s.loc[kFlagsLoc];
        s.loc[kFlagsLoc] = Cell{};
        read_scalar_src(s, inst.ops[0], gen);
        read_xmm_lane(s, inst.ops[1].xmm, 0, gen);
        return;
      }
      case Op::kCvtsi2sd: {
        const Cell gen = s.loc[xmm_loc(inst.ops[1].xmm, 0)];
        s.loc[xmm_loc(inst.ops[1].xmm, 0)] = Cell{};
        read_operand(s, inst.ops[0], gen);
        return;
      }
      case Op::kCvttsd2si: {
        const Cell gen = gpr_write_gen(s, inst.ops[1].reg);
        kill_gpr(s, inst.ops[1].reg, inst.ops[1].width);
        read_xmm_lane(s, inst.ops[0].xmm, 0, gen);
        return;
      }
      case Op::kMovq:
        if (inst.ops[1].is_xmm()) {
          Cell gen = s.loc[xmm_loc(inst.ops[1].xmm, 0)];
          s.loc[xmm_loc(inst.ops[1].xmm, 0)] = Cell{};
          s.loc[xmm_loc(inst.ops[1].xmm, 1)] = Cell{};  // movq zeroes lane 1
          read_operand(s, inst.ops[0], gen);
        } else if (inst.ops[1].is_mem()) {
          Cell addr = Cell::sink(kSinkStore | kSinkAddress);
          read_mem(s, inst.ops[1].mem, addr);
          read_xmm_lane(s, inst.ops[0].xmm, 0, Cell::sink(kSinkStore));
        } else {
          const Cell gen = gpr_write_gen(s, inst.ops[1].reg);
          kill_gpr(s, inst.ops[1].reg, inst.ops[1].width);
          read_xmm_lane(s, inst.ops[0].xmm, 0, gen);
        }
        return;
      case Op::kPinsrq: {
        const int lane = static_cast<int>(inst.ops[0].imm) & 1;
        const Cell gen = s.loc[xmm_loc(inst.ops[2].xmm, lane)];
        s.loc[xmm_loc(inst.ops[2].xmm, lane)] = Cell{};
        read_operand(s, inst.ops[1], gen);
        return;
      }
      case Op::kVinserti128: {
        const int base = (static_cast<int>(inst.ops[0].imm) & 1) * 2;
        Cell gen = s.loc[xmm_loc(inst.ops[2].xmm, base)];
        gen.merge(s.loc[xmm_loc(inst.ops[2].xmm, base + 1)]);
        s.loc[xmm_loc(inst.ops[2].xmm, base)] = Cell{};
        s.loc[xmm_loc(inst.ops[2].xmm, base + 1)] = Cell{};
        read_xmm_lane(s, inst.ops[1].xmm, 0, gen);
        read_xmm_lane(s, inst.ops[1].xmm, 1, gen);
        return;
      }
      case Op::kVpxor: {
        const int active = inst.ops[0].ymm ? 4 : 2;
        Cell gen;
        for (int l = 0; l < 4; ++l) {
          gen.merge(s.loc[xmm_loc(inst.ops[2].xmm, l)]);
          s.loc[xmm_loc(inst.ops[2].xmm, l)] = Cell{};
        }
        for (int l = 0; l < active; ++l) {
          read_xmm_lane(s, inst.ops[0].xmm, l, gen);
          read_xmm_lane(s, inst.ops[1].xmm, l, gen);
        }
        return;
      }
      case Op::kVptest: {
        const Cell gen = s.loc[kFlagsLoc];
        s.loc[kFlagsLoc] = Cell{};
        const int active = inst.ops[0].ymm ? 4 : 2;
        for (int l = 0; l < active; ++l) {
          read_xmm_lane(s, inst.ops[0].xmm, l, gen);
          read_xmm_lane(s, inst.ops[1].xmm, l, gen);
        }
        return;
      }
    }
  }
};

using Solver = masm::BackwardSolver<FlowState, SinkFlowTransfer>;

// ------------------------------------------------ report construction --

/// The sink mask of the location(s) a site writes, read off the
/// after-state of its instruction — exactly where the flipped value
/// resides when the fault fires.
std::uint16_t site_sinks(const FlowState& after,
                         const masm::ProgramTables& tables, int f, int b,
                         int i, const masm::StaticSiteInfo& info) {
  switch (info.kind) {
    case FaultSiteKind::kGprWrite:
      return after.loc[gpr_loc(info.reg)].sinks;
    case FaultSiteKind::kXmmWrite: {
      std::uint16_t sinks = 0;
      for (int l = 0; l < info.lane_count; ++l) {
        sinks |= after.loc[xmm_loc(info.xmm, info.lane_base + l)].sinks;
      }
      return sinks;
    }
    case FaultSiteKind::kFlagsWrite:
      return after.loc[kFlagsLoc].sinks;
    case FaultSiteKind::kStoreData:
      // The corrupted value is already in the store stream.
      return kSinkStore;
    case FaultSiteKind::kBranchDecision: {
      const int target = tables.target(f, b, i);
      if (target >= 0 && tables.detect_block(f, target)) return kSinkDetect;
      return kSinkBranch;
    }
  }
  return 0;
}

Prediction predict_from_sinks(std::uint16_t sinks) {
  if ((sinks & (kSinkStore | kSinkOutput)) != 0) {
    return Prediction::kSdcVulnerable;
  }
  if ((sinks & (kSinkAddress | kSinkStackPtr | kSinkBranch | kSinkTrap)) !=
      0) {
    return Prediction::kCrashProne;
  }
  if ((sinks & kSinkDetect) != 0) return Prediction::kDetected;
  return Prediction::kMasked;
}

/// `pruned`, `checked` and `section_map` are the companion analyses the
/// predictions fold in: prune's dead-bit proof, check's protected/benign
/// classification, and the section decomposition for the per-section
/// profile. All three share the store-data knob so site enumerations
/// line up.
FlowReport build_report(const masm::ProgramTables& tables,
                        const Solver& solver, const FlowOptions& opts,
                        const prune::PruneReport& pruned,
                        const CheckReport& checked,
                        const sections::SectionMap& section_map) {
  const AsmProgram& prog = tables.program();
  FlowReport report;
  report.store_data_sites = opts.store_data_sites;

  // check::SiteRecord keys by function *name*; index for O(1) joins.
  std::map<std::tuple<std::string, int, int, int>, SiteStatus> check_status;
  for (const SiteRecord& site : checked.sites) {
    check_status.emplace(std::make_tuple(site.function, site.block, site.inst,
                                         static_cast<int>(site.kind)),
                         site.status);
  }

  report.by_function.resize(prog.functions.size());
  report.by_section.resize(section_map.sections.size());
  report.site_at_ = masm::make_inst_index(prog);

  solver.for_each_site(opts.store_data_sites, [&](int f, int b, int i,
                                                 const masm::StaticSiteInfo&
                                                     info,
                                                 const FlowState& after) {
    FlowSite site;
    site.function = f;
    site.block = b;
    site.inst = i;
    site.kind = info.kind;
    site.sinks = site_sinks(after, tables, f, b, i, info);
    site.section = section_map.section_of(f, b, i);

    // Prediction priority: a full static deadness proof beats
    // everything; then check's validated protected fact; then the sink
    // mask (worst sink wins inside predict_from_sinks). Check's kBenign
    // verdict is NOT allowed to override the sink evidence: its
    // observation model is scoped to protection invariants and
    // under-observes some value chains the flow domain does track (e.g.
    // scalar-double arithmetic feeding a store in an unprotected build),
    // so "never observed" there is not a masking proof. It only
    // corroborates — the basis is recorded when flow independently found
    // no sinks at all.
    const prune::PruneSite* dead = pruned.find(f, b, i);
    const auto status_it = check_status.find(std::make_tuple(
        prog.functions[static_cast<std::size_t>(f)].name, b, i,
        static_cast<int>(info.kind)));
    if (dead != nullptr && dead->fully_dead()) {
      site.prediction = Prediction::kMasked;
      site.basis = PredictionBasis::kPruneDead;
    } else if (status_it != check_status.end() &&
               status_it->second == SiteStatus::kProtected) {
      site.prediction = Prediction::kDetected;
      site.basis = PredictionBasis::kCheckProtected;
    } else if (status_it != check_status.end() &&
               status_it->second == SiteStatus::kBenign && site.sinks == 0) {
      site.prediction = Prediction::kMasked;
      site.basis = PredictionBasis::kCheckBenign;
    } else {
      site.prediction = predict_from_sinks(site.sinks);
      site.basis = PredictionBasis::kFlow;
    }

    report.profile.add(site.prediction);
    report.by_function[static_cast<std::size_t>(f)].add(site.prediction);
    if (site.section >= 0) {
      report.by_section[static_cast<std::size_t>(site.section)].add(
          site.prediction);
    }
    report.site_at_[static_cast<std::size_t>(f)][static_cast<std::size_t>(b)]
                   [static_cast<std::size_t>(i)] =
        static_cast<std::int32_t>(report.sites.size());
    report.sites.push_back(site);
  });
  return report;
}

}  // namespace

std::string sink_mask_name(std::uint16_t sinks) {
  static constexpr std::pair<std::uint16_t, const char*> kNames[] = {
      {kSinkStore, "store"},     {kSinkOutput, "output"},
      {kSinkAddress, "address"}, {kSinkStackPtr, "stackptr"},
      {kSinkBranch, "branch"},   {kSinkTrap, "trap"},
      {kSinkDetect, "detect"},
  };
  std::string out;
  for (const auto& [bit, name] : kNames) {
    if ((sinks & bit) == 0) continue;
    if (!out.empty()) out += "|";
    out += name;
  }
  return out.empty() ? "none" : out;
}

const char* prediction_name(Prediction prediction) {
  switch (prediction) {
    case Prediction::kMasked: return "masked";
    case Prediction::kDetected: return "detected";
    case Prediction::kCrashProne: return "crash-prone";
    case Prediction::kSdcVulnerable: return "sdc-vulnerable";
  }
  return "?";
}

const char* prediction_basis_name(PredictionBasis basis) {
  switch (basis) {
    case PredictionBasis::kPruneDead: return "prune-dead";
    case PredictionBasis::kCheckProtected: return "check-protected";
    case PredictionBasis::kCheckBenign: return "check-benign";
    case PredictionBasis::kFlow: return "flow";
  }
  return "?";
}

FlowReport flow_program(const AsmProgram& program,
                        const FlowOptions& options) {
  prune::PruneOptions prune_options;
  prune_options.store_data_sites = options.store_data_sites;
  CheckOptions check_options;
  check_options.store_data_sites = options.store_data_sites;
  const CheckReport checked = check_program(program, check_options);
  sections::SectionOptions section_options;
  section_options.store_data_sites = options.store_data_sites;
  return flow_program(program, options,
                      prune::prune_program(program, prune_options), checked,
                      sections::build_sections(program, section_options,
                                               checked));
}

FlowReport flow_program(const AsmProgram& program, const FlowOptions& options,
                        const prune::PruneReport& pruned,
                        const CheckReport& checked,
                        const sections::SectionMap& section_map) {
  if (pruned.store_data_sites != options.store_data_sites) {
    throw std::invalid_argument(
        "flow_program: prune report enumerates store-data sites differently");
  }
  const masm::ProgramTables tables(program);
  Solver solver(tables);
  // Summaries run under identity exits: per location, the sinks the
  // callee itself exposes and the exit locations the entry value can
  // survive into. The concrete contexts carry no exit bits: main's exit
  // feeds %rax to the architectural return value (an output sink), and
  // every call site adds its own after-call state.
  FlowState main_exit;
  main_exit.loc[gpr_loc(Gpr::kRax)].merge(Cell::sink(kSinkOutput));
  solver.solve({FlowState::identity_exits()}, main_exit);
  return build_report(tables, solver, options, pruned, checked, section_map);
}

namespace {

telemetry::Json profile_json(const FlowProfile& profile) {
  telemetry::Json out = telemetry::Json::object();
  for (int p = 0; p < kPredictionCount; ++p) {
    out[prediction_name(static_cast<Prediction>(p))] = profile.count
        [static_cast<std::size_t>(p)];
  }
  out["total"] = profile.total();
  return out;
}

}  // namespace

telemetry::Json to_json(const FlowReport& report,
                        const AsmProgram& program) {
  telemetry::Json root = telemetry::Json::object();
  root["schema"] = "ferrum.flow.v1";
  root["store_data_sites"] = report.store_data_sites;
  root["profile"] = profile_json(report.profile);

  telemetry::Json by_function = telemetry::Json::object();
  for (std::size_t f = 0; f < report.by_function.size(); ++f) {
    if (report.by_function[f].total() == 0) continue;
    by_function[program.functions[f].name] =
        profile_json(report.by_function[f]);
  }
  root["by_function"] = std::move(by_function);

  telemetry::Json by_section = telemetry::Json::array();
  for (std::size_t sec = 0; sec < report.by_section.size(); ++sec) {
    if (report.by_section[sec].total() == 0) continue;
    telemetry::Json entry = profile_json(report.by_section[sec]);
    entry["section"] = static_cast<std::uint64_t>(sec);
    by_section.push_back(std::move(entry));
  }
  root["by_section"] = std::move(by_section);

  telemetry::Json sites = telemetry::Json::array();
  for (const FlowSite& site : report.sites) {
    telemetry::Json entry = telemetry::Json::object();
    entry["function"] =
        program.functions[static_cast<std::size_t>(site.function)].name;
    entry["block"] = static_cast<std::int64_t>(site.block);
    entry["inst"] = static_cast<std::int64_t>(site.inst);
    entry["kind"] = masm::fault_site_kind_name(site.kind);
    entry["sinks"] = sink_mask_name(site.sinks);
    entry["prediction"] = prediction_name(site.prediction);
    entry["basis"] = prediction_basis_name(site.basis);
    entry["section"] = static_cast<std::int64_t>(site.section);
    sites.push_back(std::move(entry));
  }
  root["sites"] = std::move(sites);
  return root;
}

}  // namespace ferrum::check::flow
