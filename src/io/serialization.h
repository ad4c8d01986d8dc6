#ifndef CDPIPE_IO_SERIALIZATION_H_
#define CDPIPE_IO_SERIALIZATION_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"

namespace cdpipe {

/// Minimal line-oriented checkpoint format:
///
///   <key> i <int64>
///   <key> d <hexfloat>
///   <key> s <length> <bytes>
///   <key> dv <count> <hexfloat>...
///   <key> uv <count> <uint32>...
///   <key> pv <count> <uint32>:<hexfloat>...
///
/// Doubles are written as C99 hexfloats, so values round-trip bit-exactly —
/// a resumed deployment continues from the *identical* model state.
/// Readers are strict: keys are verified in order, so structural drift
/// between the writer and the reader surfaces as an error, not silent
/// corruption.
class Serializer {
 public:
  explicit Serializer(std::ostream* os);

  void WriteInt(const std::string& key, int64_t value);
  void WriteDouble(const std::string& key, double value);
  void WriteString(const std::string& key, const std::string& value);
  void WriteDoubleVector(const std::string& key,
                         const std::vector<double>& values);
  void WriteUint32Vector(const std::string& key,
                         const std::vector<uint32_t>& values);
  void WritePairs(const std::string& key,
                  const std::vector<std::pair<uint32_t, double>>& pairs);

  /// True if every write so far succeeded at the stream level.
  bool ok() const;

 private:
  std::ostream* os_;
};

class Deserializer {
 public:
  explicit Deserializer(std::istream* is);

  Result<int64_t> ReadInt(const std::string& key);
  Result<double> ReadDouble(const std::string& key);
  Result<std::string> ReadString(const std::string& key);
  Result<std::vector<double>> ReadDoubleVector(const std::string& key);
  Result<std::vector<uint32_t>> ReadUint32Vector(const std::string& key);
  Result<std::vector<std::pair<uint32_t, double>>> ReadPairs(
      const std::string& key);

 private:
  /// Reads the next line, verifies `key` and `type`, returns the payload.
  Result<std::string> NextPayload(const std::string& key,
                                  const std::string& type);

  std::istream* is_;
};

/// Formats a double as a round-trip-exact token (hexfloat).
std::string EncodeDouble(double value);
/// Parses a token produced by EncodeDouble (also accepts plain decimals).
Result<double> DecodeDouble(const std::string& token);

/// Converts a count that was serialized as a double back to int64_t.
/// Rejects NaN, negative, non-integral and out-of-range values with
/// InvalidArgument (casting those would be undefined behaviour); `what`
/// names the field in the error.
Result<int64_t> CountFromDouble(double value, const char* what);

}  // namespace cdpipe

#endif  // CDPIPE_IO_SERIALIZATION_H_
