#include <gtest/gtest.h>

#include "backend/backend.h"
#include "fault/cell.h"
#include "frontend/codegen.h"
#include "ir/interp.h"
#include "masm/masm.h"
#include "pipeline/pipeline.h"
#include "support/source_location.h"
#include "vm/vm.h"
#include "workloads/workloads.h"

namespace ferrum {
namespace {

/// Differential harness: frontend -> interpreter vs backend -> VM must
/// agree on status and output.
void expect_equivalent(const std::string& source,
                       const backend::BackendOptions& options = {}) {
  DiagEngine diags;
  auto module = minic::compile(source, diags);
  ASSERT_NE(module, nullptr) << diags.render();
  const ir::RunResult reference = ir::interpret(*module);
  ASSERT_TRUE(reference.ok())
      << "interpreter: " << ir::run_status_name(reference.status);
  const masm::AsmProgram program = backend::lower(*module, options);
  const vm::VmResult actual = vm::run(program);
  ASSERT_TRUE(actual.ok()) << "vm: " << vm::exit_status_name(actual.status)
                           << "\n" << masm::print(program);
  EXPECT_EQ(actual.output, reference.output) << masm::print(program);
  EXPECT_EQ(actual.return_value, reference.return_value);
}

std::string asm_of(const std::string& source) {
  DiagEngine diags;
  auto module = minic::compile(source, diags);
  EXPECT_NE(module, nullptr) << diags.render();
  return masm::print(backend::lower(*module));
}

TEST(Backend, IntegerKernels) {
  expect_equivalent(R"(
    int main() {
      print_int(1 + 2 * 3 - 4 / 2 + 10 % 3);
      print_int((5 << 3) >> 2);
      print_int(255 & 15);
      print_int(1 | 2 | 4);
      print_int(255 ^ 170);
      return 0;
    })");
}

TEST(Backend, NegativeDivision) {
  expect_equivalent(R"(
    int main() {
      print_int(-17 / 5);
      print_int(-17 % 5);
      print_int(17 / -5);
      print_int(17 % -5);
      return 0;
    })");
}

TEST(Backend, VariableShiftGoesThroughCl) {
  const std::string text = asm_of(R"(
    int main() {
      int n = 3;
      print_int(1 << n);
      print_int(-256 >> n);
      return 0;
    })");
  EXPECT_NE(text.find("%cl"), std::string::npos);
  expect_equivalent(R"(
    int main() {
      int n = 3;
      print_int(1 << n);
      print_int(-256 >> n);
      return 0;
    })");
}

TEST(Backend, FloatingKernels) {
  expect_equivalent(R"(
    int main() {
      double a = 1.25;
      double b = -0.5;
      print_f64(a + b);
      print_f64(a - b);
      print_f64(a * b);
      print_f64(a / b);
      print_f64(sqrt(a * a + b * b));
      print_int((int)(a * 100.0));
      print_f64((double)((int)a + 7));
      return 0;
    })");
}

TEST(Backend, FloatComparisons) {
  expect_equivalent(R"(
    int main() {
      double a = 1.5;
      double b = 2.5;
      if (a < b) print_int(1);
      if (a > b) print_int(2);
      if (a <= 1.5) print_int(3);
      if (b >= 2.5) print_int(4);
      if (a == 1.5) print_int(5);
      if (a != b) print_int(6);
      return 0;
    })");
}

TEST(Backend, GlobalArraysAndGep) {
  expect_equivalent(R"(
    int g[16];
    double d[4] = {1.0, 2.0, 3.0, 4.0};
    int main() {
      for (int i = 0; i < 16; i++) g[i] = i * i - 5;
      long s = 0L;
      for (int i = 0; i < 16; i++) s += g[i];
      print_int(s);
      double p = 1.0;
      for (int i = 0; i < 4; i++) p *= d[i];
      print_f64(p);
      return 0;
    })");
}

TEST(Backend, LocalArrays) {
  expect_equivalent(R"(
    int main() {
      int a[8];
      double b[4];
      for (int i = 0; i < 8; i++) a[i] = i * 3;
      for (int i = 0; i < 4; i++) b[i] = (double)a[i] / 2.0;
      print_int(a[7]);
      print_f64(b[3]);
      return 0;
    })");
}

TEST(Backend, CallsAndRecursion) {
  expect_equivalent(R"(
    int gcd(int a, int b) { if (b == 0) return a; return gcd(b, a % b); }
    long sum_to(long n) { if (n <= 0L) return 0L; return n + sum_to(n - 1L); }
    int main() {
      print_int(gcd(462, 1071));
      print_int(sum_to(100L));
      return 0;
    })");
}

TEST(Backend, MixedIntFpArguments) {
  expect_equivalent(R"(
    double mix(int a, double x, long b, double y, int c) {
      return (double)a + x * 2.0 + (double)b + y + (double)c;
    }
    int main() {
      print_f64(mix(1, 2.5, 3L, 4.25, 5));
      return 0;
    })");
}

TEST(Backend, SixIntegerArguments) {
  expect_equivalent(R"(
    int six(int a, int b, int c, int d, int e, int f) {
      return a + 10 * b + 100 * c + 1000 * d + 10000 * e + 100000 * f;
    }
    int main() { print_int(six(1, 2, 3, 4, 5, 6)); return 0; })");
}

TEST(Backend, PointerParameters) {
  expect_equivalent(R"(
    void scale(double* v, int n, double f) {
      for (int i = 0; i < n; i++) v[i] *= f;
    }
    double total(double* v, int n) {
      double s = 0.0;
      for (int i = 0; i < n; i++) s += v[i];
      return s;
    }
    double buf[6] = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
    int main() {
      scale(buf, 6, 0.5);
      print_f64(total(buf, 6));
      return 0;
    })");
}

TEST(Backend, CmpBranchFusionHappens) {
  const std::string text = asm_of(
      "int main() { int x = 1; if (x < 5) print_int(1); return 0; }");
  // Fused pattern: cmp immediately followed by jl (no setcc/test dance).
  EXPECT_NE(text.find("jl\t"), std::string::npos);
  EXPECT_EQ(text.find("setl"), std::string::npos) << text;
}

TEST(Backend, MaterialisedCompareUsesSetcc) {
  // `flag` forces the comparison result through a register (setcc); the
  // branch on the reloaded flag then re-materialises flags with a fused
  // `cmpl $0` — the paper's Fig 9 pattern.
  const std::string text = asm_of(R"(
    int main() {
      int x = 1;
      int flag = x < 5;   // forces setcc materialisation
      if (flag) print_int(1);
      return 0;
    })");
  EXPECT_NE(text.find("setl"), std::string::npos);
  EXPECT_NE(text.find("cmpl\t$0"), std::string::npos);
}

TEST(Backend, RegisterPressureSpills) {
  // A deep expression tree under a tiny register budget must spill and
  // still compute correctly.
  backend::BackendOptions options;
  options.max_scratch_gprs = 4;
  expect_equivalent(R"(
    int main() {
      int a = 1; int b = 2; int c = 3; int d = 4;
      int e = 5; int f = 6; int g = 7; int h = 8;
      print_int((a + b) * (c + d) + (e + f) * (g + h) +
                (a + c) * (e + g) + (b + d) * (f + h));
      return 0;
    })", options);
}

TEST(Backend, SpillsAppearUnderPressure) {
  backend::BackendOptions tight;
  tight.max_scratch_gprs = 4;
  DiagEngine diags;
  auto module = minic::compile(R"(
    int main() {
      int a = 1; int b = 2; int c = 3; int d = 4;
      int e = 5; int f = 6; int g = 7; int h = 8;
      print_int((a + b) * (c + d) + (e + f) * (g + h) +
                (a + c) * (e + g) + (b + d) * (f + h));
      return 0;
    })", diags);
  ASSERT_NE(module, nullptr);
  const auto wide_program = backend::lower(*module);
  const auto tight_program = backend::lower(*module, tight);
  EXPECT_GT(tight_program.inst_count(), wide_program.inst_count());
}

TEST(Backend, PrologueEpilogueShape) {
  const std::string text = asm_of("int main() { return 7; }");
  EXPECT_NE(text.find("pushq\t%rbp"), std::string::npos);
  EXPECT_NE(text.find("movq\t%rsp, %rbp"), std::string::npos);
  EXPECT_NE(text.find("popq\t%rbp"), std::string::npos);
  EXPECT_NE(text.find("\tret"), std::string::npos);
}

TEST(Backend, InstOriginTagging) {
  DiagEngine diags;
  auto module = minic::compile(
      "int main() { int x = 3; if (x < 5) print_int(1); return 0; }", diags);
  ASSERT_NE(module, nullptr);
  const auto program = backend::lower(*module);
  int from_ir = 0;
  int glue = 0;
  for (const auto& fn : program.functions) {
    for (const auto& block : fn.blocks) {
      for (const auto& inst : block.insts) {
        if (inst.origin == masm::InstOrigin::kFromIR) ++from_ir;
        if (inst.origin == masm::InstOrigin::kBackendGlue) ++glue;
      }
    }
  }
  EXPECT_GT(from_ir, 0);
  EXPECT_GT(glue, 0);  // prologue, frame sub, argument spills, ...
}

TEST(Backend, StressManyVariablesLoop) {
  expect_equivalent(R"(
    int main() {
      long acc = 0L;
      for (int i = 0; i < 50; i++) {
        int a = i * 3 + 1;
        int b = a * a % 97;
        int c = b - i;
        long d = (long)c * (long)a;
        acc += d % 1000L;
      }
      print_int(acc);
      return 0;
    })");
}

TEST(Backend, WhileWithComplexCondition) {
  expect_equivalent(R"(
    int main() {
      int i = 0;
      int s = 0;
      while (i < 20 && (s < 50 || i % 2 == 0)) {
        s += i;
        i++;
      }
      print_int(s);
      print_int(i);
      return 0;
    })");
}

TEST(Backend, FrameLayoutIsIndependentOfHeapAddresses) {
  // Two builds of one kernel in one process must print the same program:
  // the frame layout may not follow the heap addresses of IR values (the
  // first build stays alive so the second one's IR lands elsewhere). A
  // differing print changes the program hash, and with it the result
  // store's cache key.
  using pipeline::Technique;
  for (const auto& workload : workloads::all()) {
    for (const Technique technique : {Technique::kNone, Technique::kIrEddi,
                                      Technique::kHybrid, Technique::kFerrum}) {
      const pipeline::Build first = pipeline::build(workload.source, technique);
      const pipeline::Build second =
          pipeline::build(workload.source, technique);
      const std::string label = workload.name + std::string("/") +
                                pipeline::technique_name(technique);
      EXPECT_EQ(masm::print(first.program), masm::print(second.program))
          << label;
      EXPECT_EQ(fault::program_hash(first.program),
                fault::program_hash(second.program))
          << label;
    }
  }
}

}  // namespace
}  // namespace ferrum
