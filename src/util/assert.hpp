#pragma once
/// \file assert.hpp
/// Contract-checking macros in the spirit of the C++ Core Guidelines GSL
/// `Expects`/`Ensures`. Logic errors throw `amrio::ContractViolation` so tests
/// can assert on them and callers get a stack-unwindable failure instead of an
/// abort. These stay enabled in release builds: this library favours
/// correctness diagnostics over the last few percent of speed.
///
/// The failure paths stay out of the caller's frame: the `_MSG` variants
/// build their message stream inside a cold, never-inlined lambda, so a check
/// costs its caller one compare, not a `std::ostringstream` worth of stack
/// (which matters where an engine copies a suspended rank's stack).

#include <sstream>
#include <stdexcept>
#include <string>

namespace amrio {

/// Thrown when an AMRIO_EXPECTS/AMRIO_ENSURES contract is violated.
class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const std::string& what) : std::logic_error(what) {}
};

namespace detail {
[[noreturn, gnu::cold, gnu::noinline]] inline void contract_fail(
    const char* kind, const char* expr, const char* file, int line,
    const std::string& msg) {
  std::ostringstream os;
  os << kind << " failed: (" << expr << ") at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw ContractViolation(os.str());
}

[[noreturn, gnu::cold, gnu::noinline]] inline void contract_fail(
    const char* kind, const char* expr, const char* file, int line) {
  contract_fail(kind, expr, file, line, std::string());
}
}  // namespace detail

}  // namespace amrio

/// Precondition check; throws amrio::ContractViolation when violated.
#define AMRIO_EXPECTS(cond)                                                     \
  do {                                                                          \
    if (!(cond)) [[unlikely]]                                                   \
      ::amrio::detail::contract_fail("Precondition", #cond, __FILE__,           \
                                     __LINE__);                                 \
  } while (0)

/// The failure path of the `_MSG` checks: stream `msg` into a message inside
/// a cold, out-of-line lambda and throw.
#define AMRIO_DETAIL_CONTRACT_FAIL_MSG(kind, expr, msg)                         \
  [&]() __attribute__((noreturn, cold, noinline)) {                             \
    std::ostringstream os_;                                                     \
    os_ << msg;                                                                 \
    ::amrio::detail::contract_fail(kind, expr, __FILE__, __LINE__, os_.str());  \
  }()

/// Precondition check with a context message (streamed, e.g. `"n=" << n`).
#define AMRIO_EXPECTS_MSG(cond, msg)                                            \
  do {                                                                          \
    if (!(cond)) [[unlikely]]                                                   \
      AMRIO_DETAIL_CONTRACT_FAIL_MSG("Precondition", #cond, msg);               \
  } while (0)

/// Postcondition check; throws amrio::ContractViolation when violated.
#define AMRIO_ENSURES(cond)                                                     \
  do {                                                                          \
    if (!(cond)) [[unlikely]]                                                   \
      ::amrio::detail::contract_fail("Postcondition", #cond, __FILE__,          \
                                     __LINE__);                                 \
  } while (0)

/// Postcondition check with a context message (streamed, e.g. `"n=" << n`).
#define AMRIO_ENSURES_MSG(cond, msg)                                            \
  do {                                                                          \
    if (!(cond)) [[unlikely]]                                                   \
      AMRIO_DETAIL_CONTRACT_FAIL_MSG("Postcondition", #cond, msg);              \
  } while (0)
