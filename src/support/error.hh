/**
 * @file
 * Structured error subsystem: a typed error value with a small code
 * taxonomy, context chaining, and a Result<T> propagation helper.
 *
 * The repo's original error story was fatal()/panic() — fine for a
 * CLI, fatal (literally) for a long sweep where one bad cell must not
 * take down the other 89. Error is the recoverable counterpart: a
 * value that can cross thread boundaries (via ErrorException and the
 * TaskPool's exception capture), be attached to a failed matrix cell,
 * and be serialized into journals and reports.
 *
 * Taxonomy, not hierarchy: the codes cover the failure classes the
 * runner and service distinguish (validation, I/O, transient
 * resource, cell execution, cancellation, deadline expiry,
 * invariant), and the retry policy keys off Error::transient()
 * rather than string matching.
 */

#ifndef BPSIM_SUPPORT_ERROR_HH
#define BPSIM_SUPPORT_ERROR_HH

#include <exception>
#include <string>
#include <utility>
#include <vector>

namespace bpsim
{

/** The error-code taxonomy. */
enum class ErrorCode
{
    ConfigInvalid,     ///< bad user configuration (fail fast, don't run)
    IoFailure,         ///< file unreadable/unwritable/corrupt
    ResourceExhausted, ///< transient resource failure (retryable)
    CellFailed,        ///< a matrix cell's execution failed
    Internal,          ///< invariant violation / unexpected exception
    Cancelled,         ///< work skipped: its request was cancelled
    DeadlineExceeded,  ///< work skipped: its deadline expired
};

template <typename T> class Result;

/** Wire name of @p code ("config_invalid", "io_failure", ...). */
const char *errorCodeName(ErrorCode code);

/** Parse a wire name back into its code; config_invalid on an
 * unknown name. */
Result<ErrorCode> errorCodeFromName(const std::string &name);

/**
 * One structured error: a code, a message, and a chain of context
 * notes added as the error propagates outward (innermost first).
 */
class Error
{
  public:
    Error() = default;

    Error(ErrorCode code, std::string message)
        : errorCode(code), errorMessage(std::move(message))
    {
    }

    ErrorCode code() const { return errorCode; }
    const std::string &message() const { return errorMessage; }
    const std::vector<std::string> &context() const { return notes; }

    /** Append a propagation note ("while running cell X"). */
    Error &
    withContext(std::string note)
    {
        notes.push_back(std::move(note));
        return *this;
    }

    /** Retry policy hook: is this failure worth retrying? */
    bool
    transient() const
    {
        return errorCode == ErrorCode::ResourceExhausted;
    }

    /** "[code] message (context: a; b)" for logs and reports. */
    std::string describe() const;

  private:
    ErrorCode errorCode = ErrorCode::Internal;
    std::string errorMessage;
    std::vector<std::string> notes;
};

/**
 * Exception wrapper so an Error can unwind through code that cannot
 * return a Result (deep call stacks, TaskPool workers). The pool
 * captures these per task; ExperimentRunner turns them back into
 * Error values on the failed cell.
 */
class ErrorException : public std::exception
{
  public:
    explicit ErrorException(Error error)
        : heldError(std::move(error)), rendered(heldError.describe())
    {
    }

    const Error &error() const { return heldError; }

    const char *what() const noexcept override
    {
        return rendered.c_str();
    }

  private:
    Error heldError;
    std::string rendered;
};

/** Throw @p error as an ErrorException. */
[[noreturn]] inline void
raise(Error error)
{
    throw ErrorException(std::move(error));
}

/**
 * Value-or-Error propagation helper. A Result is either ok (holding
 * a T) or failed (holding an Error); accessing the wrong side is an
 * invariant violation. Use okResult()/failure() to construct.
 */
template <typename T>
class Result
{
  public:
    Result(T value) : held(std::move(value)), hasValue(true) {}
    Result(Error error) : heldError(std::move(error)), hasValue(false)
    {
    }

    bool ok() const { return hasValue; }
    explicit operator bool() const { return hasValue; }

    T &
    value()
    {
        errorOnValueAccess(!hasValue);
        return held;
    }

    const T &
    value() const
    {
        errorOnValueAccess(!hasValue);
        return held;
    }

    const Error &
    error() const
    {
        errorOnValueAccess(hasValue);
        return heldError;
    }

    Error &
    error()
    {
        errorOnValueAccess(hasValue);
        return heldError;
    }

  private:
    static void errorOnValueAccess(bool wrong_side);

    T held{};
    Error heldError;
    bool hasValue;
};

/** Result<void>: success carries no value. */
template <>
class Result<void>
{
  public:
    Result() : hasValue(true) {}
    Result(Error error) : heldError(std::move(error)), hasValue(false)
    {
    }

    bool ok() const { return hasValue; }
    explicit operator bool() const { return hasValue; }

    const Error &
    error() const
    {
        errorOnValueAccess(hasValue);
        return heldError;
    }

    Error &
    error()
    {
        errorOnValueAccess(hasValue);
        return heldError;
    }

  private:
    static void errorOnValueAccess(bool wrong_side);

    Error heldError;
    bool hasValue;
};

/** Shared guard: panic (simulator bug) on wrong-side Result access. */
void resultAccessPanic();

template <typename T>
void
Result<T>::errorOnValueAccess(bool wrong_side)
{
    if (wrong_side)
        resultAccessPanic();
}

inline void
Result<void>::errorOnValueAccess(bool wrong_side)
{
    if (wrong_side)
        resultAccessPanic();
}

/** Success value for Result<void> call sites that want to be explicit. */
inline Result<void>
okResult()
{
    return {};
}

} // namespace bpsim

#endif // BPSIM_SUPPORT_ERROR_HH
