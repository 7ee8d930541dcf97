#include "host/coprocessor.hpp"

#include "isa/rtm_ops.hpp"
#include "util/error.hpp"

namespace fpgafu::host {

void Coprocessor::submit_word(isa::Word word) {
  driver_.enqueue_word(word);
  // The submit path has no cycle budget of its own (it is bounded by the
  // link draining, exactly as the historical per-word spin was); a wedged
  // link below a blocking call is caught by that call's Deadline instead.
  pump_.flush(Deadline::unbounded(system().simulator()),
              "Coprocessor::submit_word");
}

void Coprocessor::submit(const isa::Program& program) {
  driver_.enqueue(program);
  pump_.flush(Deadline::unbounded(system().simulator()),
              "Coprocessor::submit");
}

std::vector<msg::Response> Coprocessor::call(const isa::Program& program,
                                             std::uint64_t max_cycles) {
  submit(program);
  std::vector<msg::Response> responses;
  try {
    pump_.run_until(
        [&] {
          while (auto r = poll()) {
            responses.push_back(*r);
          }
          // Done when the expected responses arrived and nothing is still in
          // flight (extra error responses drain before idle turns true).
          return responses.size() >= program.expected_responses() &&
                 system().idle();
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
          return got.has_value();
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

isa::Word Coprocessor::read_reg(isa::RegNum reg) {
  isa::Instruction get;
  get.function = isa::fc::kRtm;
  get.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kGet);
  get.src1 = reg;
  submit_word(get.encode());
  const msg::Response r = wait_response();
  if (r.type != msg::Response::Type::kData) {
    throw SimError("read_reg received unexpected response: " +
                   msg::to_string(r));
  }
  return r.payload;
}

isa::FlagWord Coprocessor::read_flags(isa::RegNum flag_reg) {
  isa::Instruction getf;
  getf.function = isa::fc::kRtm;
  getf.variety = static_cast<isa::VarietyCode>(isa::RtmOp::kGetFlags);
  getf.src_flag = flag_reg;
  submit_word(getf.encode());
  const msg::Response r = wait_response();
  if (r.type != msg::Response::Type::kFlags) {
    throw SimError("read_flags received unexpected response: " +
                   msg::to_string(r));
  }
  return r.code;
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
  submit_word(s.encode());
  const msg::Response r = wait_response();
  if (r.type != msg::Response::Type::kSyncDone) {
    throw SimError("sync received unexpected response: " +
                   msg::to_string(r));
  }
}

}  // namespace fpgafu::host
