#include "host/coprocessor.hpp"

#include <string>

#include "isa/rtm_ops.hpp"
#include "util/error.hpp"

namespace fpgafu::host {

void Coprocessor::submit(std::span<const isa::Word> words) {
  driver_.enqueue(words);
  pump_.run_until(
      [this] {
        return driver_.tx_drained() ? Wake::done() : Wake::on_link();
      },
      Deadline(system().simulator(), kDefaultCallBudgetCycles),
      "Coprocessor::submit");
}

std::vector<msg::Response> Coprocessor::call(const isa::Program& program,
                                             std::uint64_t max_cycles) {
  driver_.enqueue(program);
  std::vector<msg::Response> responses;
  try {
    pump_.run_until(
        [&] {
          while (auto r = poll()) {
            responses.push_back(*r);
          }
          // Done when the expected responses arrived and nothing is still in
          // flight (extra error responses drain before idle turns true).
          // Until then only a response frame is news; after that, idle()
          // is simulator state (a word the downlink refused means it is
          // full, so not idle).
          if (responses.size() < program.expected_responses()) {
            return Wake::on_link();
          }
          return system().idle() ? Wake::done() : Wake::on_step();
        },
        Deadline(system().simulator(), max_cycles), "Coprocessor::call");
  } catch (const SimError&) {
    // Watchdog fired with an unknown amount of a frame consumed; drop the
    // partial words so the next exchange starts aligned.
    reset();
    throw;
  }
  return responses;
}

msg::Response Coprocessor::wait_response(std::uint64_t max_cycles) {
  std::optional<msg::Response> got;
  try {
    pump_.run_until(
        [&] {
          if (!got.has_value()) {
            got = poll();
          }
          return got.has_value() ? Wake::done() : Wake::on_link();
        },
        Deadline(system().simulator(), max_cycles),
        "Coprocessor::wait_response");
  } catch (const SimError&) {
    reset();
    throw;
  }
  return *got;
}

void Coprocessor::write_reg(isa::RegNum reg, isa::Word value) {
  isa::Program p;
  p.emit_put(reg, value);
  submit(p);
}

msg::Response Coprocessor::exchange(const isa::Instruction& inst,
                                   msg::Response::Type want,
                                   std::string_view what) {
  const isa::Word word = inst.encode();
  driver_.enqueue(std::span(&word, 1));
  const msg::Response r = wait_response();
  if (r.type != want) {
    throw SimError(std::string(what) + " received unexpected response: " +
                   msg::to_string(r));
  }
  return r;
}

isa::Word Coprocessor::read_reg(isa::RegNum reg) {
  isa::Instruction get;
  get.function = isa::fc::kRtm;
  get.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kGet);
  get.src1 = reg;
  return exchange(get, msg::Response::Type::kData, "read_reg").payload;
}

isa::FlagWord Coprocessor::read_flags(isa::RegNum flag_reg) {
  isa::Instruction getf;
  getf.function = isa::fc::kRtm;
  getf.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kGetFlags);
  getf.src_flag = flag_reg;
  return exchange(getf, msg::Response::Type::kFlags, "read_flags").code;
}

void Coprocessor::write_regs(isa::RegNum base,
                             const std::vector<isa::Word>& values) {
  isa::Program p;
  p.emit_put_vec(base, values);
  submit(p);
}

std::vector<isa::Word> Coprocessor::read_regs(isa::RegNum base,
                                              std::uint8_t count) {
  isa::Program p;
  p.emit_get_vec(base, count);
  const auto responses = call(p);
  std::vector<isa::Word> out;
  out.reserve(count);
  for (const msg::Response& r : responses) {
    if (r.type != msg::Response::Type::kData) {
      throw SimError("read_regs received unexpected response: " +
                     msg::to_string(r));
    }
    out.push_back(r.payload);
  }
  return out;
}

void Coprocessor::sync() {
  isa::Instruction s;
  s.function = isa::fc::kRtm;
  s.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kSync);
  exchange(s, msg::Response::Type::kSyncDone, "sync");
}

}  // namespace fpgafu::host
