// Precondition / postcondition checking.
//
// SMARTRED_EXPECT(cond, msg)  — validates a precondition; throws
//                               smartred::PreconditionError on violation.
//                               `msg` must be a string literal.
// SMARTRED_ENSURE(cond, msg)  — validates a postcondition / invariant; throws
//                               smartred::PostconditionError on violation.
//
// Contract violations are programming errors, so these are always on; the
// checked expressions in this library are O(1) and never on a hot inner loop.
#pragma once

#include <stdexcept>
#include <string>

namespace smartred {

/// Thrown when a function's documented precondition is violated by a caller.
class PreconditionError : public std::logic_error {
 public:
  PreconditionError(const std::string& what, const char* reason)
      : std::logic_error(what), reason_(reason) {}

  /// The violated precondition's message alone, without the checked
  /// expression or the source location (a string literal).
  [[nodiscard]] const char* reason() const { return reason_; }

 private:
  const char* reason_;
};

/// Thrown when an internal invariant or postcondition fails to hold.
class PostconditionError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {

[[noreturn]] inline void fail_expect(const char* cond, const char* msg,
                                     const char* file, int line) {
  throw PreconditionError(std::string("precondition failed: ") + cond +
                              " (" + msg + ") at " + file + ":" +
                              std::to_string(line),
                          msg);
}

[[noreturn]] inline void fail_ensure(const char* cond, const char* msg,
                                     const char* file, int line) {
  throw PostconditionError(std::string("postcondition failed: ") + cond +
                           " (" + msg + ") at " + file + ":" +
                           std::to_string(line));
}

}  // namespace detail
}  // namespace smartred

#define SMARTRED_EXPECT(cond, msg)                                        \
  do {                                                                    \
    if (!(cond))                                                          \
      ::smartred::detail::fail_expect(#cond, "" msg, __FILE__, __LINE__); \
  } while (false)

#define SMARTRED_ENSURE(cond, msg)                                      \
  do {                                                                  \
    if (!(cond))                                                        \
      ::smartred::detail::fail_ensure(#cond, (msg), __FILE__, __LINE__); \
  } while (false)
