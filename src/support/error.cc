#include "support/error.hh"

#include "support/logging.hh"

namespace bpsim
{

const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::ConfigInvalid:
        return "config_invalid";
      case ErrorCode::IoFailure:
        return "io_failure";
      case ErrorCode::ResourceExhausted:
        return "resource_exhausted";
      case ErrorCode::CellFailed:
        return "cell_failed";
      case ErrorCode::Internal:
        return "internal";
      case ErrorCode::Cancelled:
        return "cancelled";
      case ErrorCode::DeadlineExceeded:
        return "deadline_exceeded";
    }
    return "?";
}

Result<ErrorCode>
errorCodeFromName(const std::string &name)
{
    for (const ErrorCode code :
         {ErrorCode::ConfigInvalid, ErrorCode::IoFailure,
          ErrorCode::ResourceExhausted, ErrorCode::CellFailed,
          ErrorCode::Internal, ErrorCode::Cancelled,
          ErrorCode::DeadlineExceeded}) {
        if (name == errorCodeName(code))
            return code;
    }
    return Error(ErrorCode::ConfigInvalid,
                 "unknown error code '" + name + "'");
}

std::string
Error::describe() const
{
    std::string out = "[";
    out += errorCodeName(errorCode);
    out += "] ";
    out += errorMessage;
    if (!notes.empty()) {
        out += " (context: ";
        for (std::size_t i = 0; i < notes.size(); ++i) {
            if (i > 0)
                out += "; ";
            out += notes[i];
        }
        out += ")";
    }
    return out;
}

void
resultAccessPanic()
{
    bpsim_panic("Result accessed on the wrong side (value() on a "
                "failure or error() on a success)");
}

} // namespace bpsim
