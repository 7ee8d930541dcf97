#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "isa/program.hpp"
#include "rtm/rtm.hpp"

namespace fpgafu::host {

class Coprocessor;

/// A tiny expression compiler for the coprocessor: the usability layer the
/// paper's conclusion gestures at ("our results do not make the use of
/// hardware accelerators as easy as ordinary programming ... the work
/// presented here does make the task significantly easier").
///
/// Build an expression DAG over named inputs, compile it once (common
/// subexpressions are shared, registers allocated by liveness), then run it
/// against the coprocessor with different input bindings:
///
/// ```cpp
///   using host::Expr;
///   Expr x = Expr::input("x"), y = Expr::input("y");
///   Expr e = (x + y) * (x - y) + Expr::constant(7);
///   host::CompiledExpr c = host::ExprCompiler(system.rtm().config()).compile(e);
///   isa::Word v = c.run(copro, {{"x", 20}, {"y", 5}});  // (25*15)+7
/// ```
///
/// Integer operators use the arithmetic/logic/shift/muldiv units; the f*
/// factory functions build IEEE-754 single-precision operations on the
/// float unit.
class Expr {
 public:
  /// Leaves.
  static Expr constant(isa::Word value);
  static Expr input(std::string name);

  /// Integer operations (32/64-bit two's complement, per the RTM width).
  friend Expr operator+(const Expr& a, const Expr& b);
  friend Expr operator-(const Expr& a, const Expr& b);
  friend Expr operator*(const Expr& a, const Expr& b);  ///< low product word
  friend Expr operator&(const Expr& a, const Expr& b);
  friend Expr operator|(const Expr& a, const Expr& b);
  friend Expr operator^(const Expr& a, const Expr& b);
  friend Expr operator<<(const Expr& a, const Expr& b);
  friend Expr operator>>(const Expr& a, const Expr& b);  ///< logical
  Expr udiv(const Expr& divisor) const;
  Expr urem(const Expr& divisor) const;

  /// IEEE-754 single-precision operations (operands are raw bit patterns).
  static Expr fadd(const Expr& a, const Expr& b);
  static Expr fsub(const Expr& a, const Expr& b);
  static Expr fmul(const Expr& a, const Expr& b);
  static Expr fdiv(const Expr& a, const Expr& b);

  struct Node;
  const std::shared_ptr<const Node>& node() const { return node_; }

 private:
  explicit Expr(std::shared_ptr<const Node> node) : node_(std::move(node)) {}
  static Expr binary(isa::FunctionCode function, isa::VarietyCode variety,
                     const Expr& a, const Expr& b);

  std::shared_ptr<const Node> node_;
};

/// A compiled expression: an RTM program template plus its input layout.
class CompiledExpr {
 public:
  /// Emit the full program for one evaluation with the given bindings.
  /// Every named input must be bound.
  isa::Program program(const std::map<std::string, isa::Word>& inputs) const;

  /// Convenience: emit, call, and return the root value.
  isa::Word run(Coprocessor& copro,
                const std::map<std::string, isa::Word>& inputs) const;

  /// Compilation statistics.
  std::size_t operation_count() const { return op_count_; }
  std::size_t registers_used() const { return registers_used_; }

 private:
  friend class ExprCompiler;

  /// One scheduled step.  Because registers are reused across the
  /// schedule, steps must be emitted in exactly this order — a PUT into a
  /// recycled register belongs between the operations around it.
  struct Step {
    enum class Kind { kPutConst, kPutInput, kOp };
    Kind kind;
    isa::RegNum dst = 0;
    isa::Word value = 0;          // kPutConst
    std::string input_name;       // kPutInput
    isa::FunctionCode function = 0;  // kOp
    isa::VarietyCode variety = 0;    // kOp
    isa::RegNum src1 = 0;
    isa::RegNum src2 = 0;
  };

  std::vector<Step> steps_;
  std::size_t op_count_ = 0;
  isa::RegNum result_reg_ = 0;
  std::size_t registers_used_ = 0;
};

/// Compiles expression DAGs: hash-consed common-subexpression elimination,
/// topological scheduling, and liveness-based register reuse.  Throws
/// SimError if the expression needs more live registers than the RTM
/// configuration provides (there is no spill path — the register file is
/// the only on-FPGA storage the framework gives programs).
class ExprCompiler {
 public:
  explicit ExprCompiler(const rtm::RtmConfig& config) : config_(config) {}

  CompiledExpr compile(const Expr& root) const;

 private:
  rtm::RtmConfig config_;
};

}  // namespace fpgafu::host
