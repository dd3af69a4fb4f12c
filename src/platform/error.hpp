// The structured error model shared by every API boundary that can fail
// on external input or at runtime: model/input loaders, engine
// construction, the serving pipeline, and the fault-tolerance machinery.
//
// Two shapes, one vocabulary:
//
//   * `Result<T>` — the explicit form. Loaders expose `try_*` overloads
//     returning Result so servers can branch on ErrorCode without
//     exception plumbing (a malformed upload is control flow, not a
//     crash).
//   * `ErrorException` — the same Error carried as an exception, thrown
//     by the legacy-signature wrappers. It derives from
//     std::runtime_error, so every pre-existing `catch (std::exception&)`
//     boundary keeps working while gaining a typed `code()`.
//
// SNICIT_CHECK stays the tool for *internal invariant* violations
// (programming errors abort); Error/Result is for inputs the process
// does not control.
#pragma once

#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

#include "platform/common.hpp"

namespace snicit::platform {

/// Every way the system can fail at a boundary. Codes are stable: they
/// are surfaced in CLI exit diagnostics, metrics counter names, and
/// StreamResult failure records.
enum class ErrorCode : int {
  kOk = 0,
  kBadModelFile,          // malformed/truncated/out-of-range model bytes
  kBadInput,              // caller-supplied value outside the contract
  kWorkerFault,           // a serving worker threw while running a batch
  kTimeout,               // per-batch deadline exceeded
  kNumericalDivergence,   // NaN/inf or residue blowup detected mid-run
  kQueueClosed,           // operation on a closed work queue
  kRejectedOverload,      // admission control refused or shed the request
  kResourceExhausted,     // allocation/IO resource failure (journal, snapshot)
};

/// Stable lowercase name for logs/JSON ("bad_model_file", ...).
inline const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "ok";
    case ErrorCode::kBadModelFile: return "bad_model_file";
    case ErrorCode::kBadInput: return "bad_input";
    case ErrorCode::kWorkerFault: return "worker_fault";
    case ErrorCode::kTimeout: return "timeout";
    case ErrorCode::kNumericalDivergence: return "numerical_divergence";
    case ErrorCode::kQueueClosed: return "queue_closed";
    case ErrorCode::kRejectedOverload: return "rejected_overload";
    case ErrorCode::kResourceExhausted: return "resource_exhausted";
  }
  return "unknown";
}

/// gtest printer (found by argument-dependent lookup): a failed
/// EXPECT_EQ on two codes prints "bad_model_file", not the enum's bytes.
inline void PrintTo(ErrorCode code, std::ostream* os) {
  *os << to_string(code);
}

/// A typed failure: what class of thing went wrong plus a human message
/// with the specifics (path, offending value, layer index).
struct Error {
  ErrorCode code = ErrorCode::kOk;
  std::string message;

  std::string to_string() const {
    return std::string("[") + platform::to_string(code) + "] " + message;
  }
};

/// Error as an exception, for the throwing wrappers and for faults that
/// must cross a worker-thread boundary. Catchable as std::runtime_error.
class ErrorException : public std::runtime_error {
 public:
  explicit ErrorException(Error error)
      : std::runtime_error(error.to_string()), error_(std::move(error)) {}
  ErrorException(ErrorCode code, std::string message)
      : ErrorException(Error{code, std::move(message)}) {}

  const Error& error() const { return error_; }
  ErrorCode code() const { return error_.code; }

 private:
  Error error_;
};

/// Value-or-Error. Construct from a T (success) or an Error (failure);
/// `value()` / `error()` assert the matching state, `value_or_throw()`
/// bridges back into the exception world at legacy boundaries.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : state_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Error error) : state_(std::move(error)) {  // NOLINT
    SNICIT_CHECK(std::get<Error>(state_).code != ErrorCode::kOk,
                 "Result error must carry a non-ok code");
  }

  bool ok() const { return std::holds_alternative<T>(state_); }
  explicit operator bool() const { return ok(); }

  const T& value() const& {
    SNICIT_CHECK(ok(), "Result::value() on an error result");
    return std::get<T>(state_);
  }
  T& value() & {
    SNICIT_CHECK(ok(), "Result::value() on an error result");
    return std::get<T>(state_);
  }
  T&& value() && {
    SNICIT_CHECK(ok(), "Result::value() on an error result");
    return std::get<T>(std::move(state_));
  }

  const Error& error() const {
    SNICIT_CHECK(!ok(), "Result::error() on a success result");
    return std::get<Error>(state_);
  }
  ErrorCode code() const {
    return ok() ? ErrorCode::kOk : error().code;
  }

  /// Success: moves the value out. Failure: throws ErrorException.
  T value_or_throw() && {
    if (!ok()) throw ErrorException(std::get<Error>(state_));
    return std::get<T>(std::move(state_));
  }

 private:
  std::variant<T, Error> state_;
};

/// Status-only form for operations with no payload.
template <>
class [[nodiscard]] Result<void> {
 public:
  Result() = default;  // success
  Result(Error error) : error_(std::move(error)) {  // NOLINT
    SNICIT_CHECK(error_.code != ErrorCode::kOk,
                 "Result error must carry a non-ok code");
  }

  bool ok() const { return error_.code == ErrorCode::kOk; }
  explicit operator bool() const { return ok(); }

  const Error& error() const {
    SNICIT_CHECK(!ok(), "Result::error() on a success result");
    return error_;
  }
  ErrorCode code() const { return error_.code; }

  void value_or_throw() const {
    if (!ok()) throw ErrorException(error_);
  }

 private:
  Error error_;
};

}  // namespace snicit::platform
