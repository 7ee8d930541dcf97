#include "host/expr.hpp"

#include <unordered_map>

#include "host/coprocessor.hpp"
#include "isa/arith.hpp"
#include "isa/fp32.hpp"
#include "isa/logic.hpp"
#include "isa/muldiv.hpp"
#include "isa/rtm_ops.hpp"
#include "isa/shift.hpp"
#include "util/error.hpp"

namespace fpgafu::host {

struct Expr::Node {
  enum class Kind { kConst, kInput, kOp };
  Kind kind;
  isa::Word value = 0;                 // kConst
  std::string name;                    // kInput
  isa::FunctionCode function = 0;      // kOp
  isa::VarietyCode variety = 0;        // kOp
  std::shared_ptr<const Node> lhs;
  std::shared_ptr<const Node> rhs;
};

Expr Expr::constant(isa::Word value) {
  auto n = std::make_shared<Node>();
  n->kind = Node::Kind::kConst;
  n->value = value;
  return Expr(std::move(n));
}

Expr Expr::input(std::string name) {
  auto n = std::make_shared<Node>();
  n->kind = Node::Kind::kInput;
  n->name = std::move(name);
  return Expr(std::move(n));
}

Expr Expr::binary(isa::FunctionCode function, isa::VarietyCode variety,
                  const Expr& a, const Expr& b) {
  auto n = std::make_shared<Node>();
  n->kind = Node::Kind::kOp;
  n->function = function;
  n->variety = variety;
  n->lhs = a.node_;
  n->rhs = b.node_;
  return Expr(std::move(n));
}

Expr operator+(const Expr& a, const Expr& b) {
  return Expr::binary(isa::fc::kArith,
                      isa::arith::variety(isa::arith::Op::kAdd), a, b);
}
Expr operator-(const Expr& a, const Expr& b) {
  return Expr::binary(isa::fc::kArith,
                      isa::arith::variety(isa::arith::Op::kSub), a, b);
}
Expr operator*(const Expr& a, const Expr& b) {
  return Expr::binary(isa::fc::kMulDiv,
                      isa::muldiv::variety(isa::muldiv::Op::kMul), a, b);
}
Expr operator&(const Expr& a, const Expr& b) {
  return Expr::binary(isa::fc::kLogic,
                      isa::logic::variety(isa::logic::Op::kAnd), a, b);
}
Expr operator|(const Expr& a, const Expr& b) {
  return Expr::binary(isa::fc::kLogic,
                      isa::logic::variety(isa::logic::Op::kOr), a, b);
}
Expr operator^(const Expr& a, const Expr& b) {
  return Expr::binary(isa::fc::kLogic,
                      isa::logic::variety(isa::logic::Op::kXor), a, b);
}
Expr operator<<(const Expr& a, const Expr& b) {
  return Expr::binary(isa::fc::kShift,
                      isa::shift::variety(isa::shift::Op::kShl), a, b);
}
Expr operator>>(const Expr& a, const Expr& b) {
  return Expr::binary(isa::fc::kShift,
                      isa::shift::variety(isa::shift::Op::kShr), a, b);
}
Expr Expr::udiv(const Expr& divisor) const {
  return binary(isa::fc::kMulDiv, isa::muldiv::variety(isa::muldiv::Op::kDiv),
                *this, divisor);
}
Expr Expr::urem(const Expr& divisor) const {
  return binary(isa::fc::kMulDiv, isa::muldiv::variety(isa::muldiv::Op::kRem),
                *this, divisor);
}
Expr Expr::fadd(const Expr& a, const Expr& b) {
  return binary(isa::fc::kFloat, isa::fp32::variety(isa::fp32::Op::kFadd), a,
                b);
}
Expr Expr::fsub(const Expr& a, const Expr& b) {
  return binary(isa::fc::kFloat, isa::fp32::variety(isa::fp32::Op::kFsub), a,
                b);
}
Expr Expr::fmul(const Expr& a, const Expr& b) {
  return binary(isa::fc::kFloat, isa::fp32::variety(isa::fp32::Op::kFmul), a,
                b);
}
Expr Expr::fdiv(const Expr& a, const Expr& b) {
  return binary(isa::fc::kFloat, isa::fp32::variety(isa::fp32::Op::kFdiv), a,
                b);
}

// ---------------------------------------------------------------------------
// Compilation.

namespace {

using Node = Expr::Node;
using NodePtr = std::shared_ptr<const Node>;

/// Structural key for hash-consing (CSE).
struct NodeKey {
  int kind;
  isa::Word value;
  std::string name;
  int function;
  int variety;
  const void* lhs;
  const void* rhs;

  bool operator==(const NodeKey&) const = default;
};

struct NodeKeyHash {
  std::size_t operator()(const NodeKey& k) const {
    std::size_t h = std::hash<int>()(k.kind);
    h = h * 31 + std::hash<isa::Word>()(k.value);
    h = h * 31 + std::hash<std::string>()(k.name);
    h = h * 31 + std::hash<int>()(k.function * 256 + k.variety);
    h = h * 31 + std::hash<const void*>()(k.lhs);
    h = h * 31 + std::hash<const void*>()(k.rhs);
    return h;
  }
};

}  // namespace

CompiledExpr ExprCompiler::compile(const Expr& root) const {
  check(root.node() != nullptr, "compile: empty expression");

  // 1. Deduplicate structurally identical subtrees (bottom-up): map every
  //    node to a canonical representative.
  std::unordered_map<const Node*, const Node*> canon;
  std::unordered_map<NodeKey, const Node*, NodeKeyHash> interned;
  std::vector<const Node*> order;  // canonical nodes, topologically sorted
  std::vector<NodePtr> keep_alive;

  // Iterative postorder over the DAG.
  std::vector<std::pair<const Node*, bool>> stack{{root.node().get(), false}};
  keep_alive.push_back(root.node());
  while (!stack.empty()) {
    auto [n, expanded] = stack.back();
    stack.pop_back();
    if (canon.count(n) != 0) {
      continue;
    }
    if (!expanded) {
      stack.push_back({n, true});
      if (n->kind == Node::Kind::kOp) {
        stack.push_back({n->rhs.get(), false});
        stack.push_back({n->lhs.get(), false});
      }
      continue;
    }
    NodeKey key;
    key.kind = static_cast<int>(n->kind);
    key.value = n->kind == Node::Kind::kConst ? n->value : 0;
    key.name = n->kind == Node::Kind::kInput ? n->name : std::string();
    key.function = n->kind == Node::Kind::kOp ? n->function : 0;
    key.variety = n->kind == Node::Kind::kOp ? n->variety : 0;
    key.lhs = n->kind == Node::Kind::kOp ? canon.at(n->lhs.get()) : nullptr;
    key.rhs = n->kind == Node::Kind::kOp ? canon.at(n->rhs.get()) : nullptr;
    const auto [it, inserted] = interned.emplace(key, n);
    canon[n] = it->second;
    if (inserted) {
      order.push_back(n);
    }
  }

  // 2. Use counts over canonical edges (the root counts as one use).
  std::unordered_map<const Node*, int> uses;
  uses[canon.at(root.node().get())] += 1;
  for (const Node* n : order) {
    if (n->kind == Node::Kind::kOp) {
      uses[canon.at(n->lhs.get())] += 1;
      uses[canon.at(n->rhs.get())] += 1;
    }
  }

  // 3. Schedule in topological order with liveness-based register reuse.
  CompiledExpr out;
  std::vector<isa::RegNum> free_regs;
  isa::RegNum next_reg = 1;  // r0 stays zero by convention
  const std::size_t limit = config_.data_regs;
  auto alloc = [&]() -> isa::RegNum {
    if (!free_regs.empty()) {
      const isa::RegNum r = free_regs.back();
      free_regs.pop_back();
      return r;
    }
    check(next_reg < limit,
          "expression needs more live registers than the RTM provides");
    return next_reg++;
  };

  std::unordered_map<const Node*, isa::RegNum> reg_of;
  std::unordered_map<const Node*, int> remaining = uses;
  auto consume = [&](const Node* n) {
    if (--remaining.at(n) == 0) {
      free_regs.push_back(reg_of.at(n));
    }
  };

  for (const Node* n : order) {
    const isa::RegNum r = alloc();
    reg_of[n] = r;
    CompiledExpr::Step step;
    step.dst = r;
    switch (n->kind) {
      case Node::Kind::kConst:
        step.kind = CompiledExpr::Step::Kind::kPutConst;
        step.value = n->value;
        break;
      case Node::Kind::kInput:
        step.kind = CompiledExpr::Step::Kind::kPutInput;
        step.input_name = n->name;
        break;
      case Node::Kind::kOp: {
        const Node* a = canon.at(n->lhs.get());
        const Node* b = canon.at(n->rhs.get());
        step.kind = CompiledExpr::Step::Kind::kOp;
        step.function = n->function;
        step.variety = n->variety;
        step.src1 = reg_of.at(a);
        step.src2 = reg_of.at(b);
        ++out.op_count_;
        consume(a);
        consume(b);
        break;
      }
    }
    out.steps_.push_back(std::move(step));
  }
  out.registers_used_ = next_reg - 1;  // r1 .. r(next_reg-1) were touched
  out.result_reg_ = reg_of.at(canon.at(root.node().get()));
  return out;
}

isa::Program CompiledExpr::program(
    const std::map<std::string, isa::Word>& inputs) const {
  isa::Program p;
  for (const Step& step : steps_) {
    switch (step.kind) {
      case Step::Kind::kPutConst:
        p.emit_put(step.dst, step.value);
        break;
      case Step::Kind::kPutInput: {
        const auto it = inputs.find(step.input_name);
        if (it == inputs.end()) {
          throw SimError("unbound expression input '" + step.input_name +
                         "'");
        }
        p.emit_put(step.dst, it->second);
        break;
      }
      case Step::Kind::kOp: {
        isa::Instruction inst;
        inst.function = step.function;
        inst.variety = step.variety;
        inst.dst1 = step.dst;
        inst.src1 = step.src1;
        inst.src2 = step.src2;
        p.emit(inst);
        break;
      }
    }
  }
  isa::Instruction get = isa::rtm_instruction(isa::RtmOp::kGet);
  get.src1 = result_reg_;
  p.emit(get);
  return p;
}

isa::Word CompiledExpr::run(
    Coprocessor& copro, const std::map<std::string, isa::Word>& inputs) const {
  const auto responses = copro.call(program(inputs));
  check(responses.size() == 1 &&
            responses.front().type == msg::Response::Type::kData,
        "expression run: unexpected response stream");
  return responses.front().payload;
}

}  // namespace fpgafu::host
