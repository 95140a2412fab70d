// Error-handling vocabulary for the qvg library.
//
// Policy (per C++ Core Guidelines E.*):
//  * Programmer errors (contract violations) throw ContractViolation.
//  * Environmental errors (I/O, parse) throw IoError / ParseError.
//  * *Expected* domain outcomes — e.g. "extraction failed on this noisy
//    device" — are not exceptional; they are reported through result structs
//    or Status / Result<T> (common/status.hpp).
#pragma once

#include <stdexcept>

namespace qvg {

/// Base class of all qvg exceptions.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A precondition, postcondition, or invariant was violated (programmer bug).
class ContractViolation : public Error {
 public:
  using Error::Error;
};

/// File or stream I/O failed.
class IoError : public Error {
 public:
  using Error::Error;
};

/// Input data could not be parsed.
class ParseError : public Error {
 public:
  using Error::Error;
};

/// Numerical routine failed to converge or encountered a singular system.
class NumericalError : public Error {
 public:
  using Error::Error;
};

}  // namespace qvg
