#include "src/io/serialization.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <sstream>

#include "src/common/logging.h"
#include "src/common/string_util.h"

namespace cdpipe {

std::string EncodeDouble(double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

Result<double> DecodeDouble(const std::string& token) {
  if (token.empty()) return Status::InvalidArgument("empty double token");
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size()) {
    return Status::InvalidArgument("bad double token: '" + token + "'");
  }
  return value;
}

Serializer::Serializer(std::ostream* os) : os_(os) {
  CDPIPE_CHECK(os_ != nullptr);
}

bool Serializer::ok() const { return static_cast<bool>(*os_); }

void Serializer::WriteInt(const std::string& key, int64_t value) {
  *os_ << key << " i " << value << '\n';
}

void Serializer::WriteDouble(const std::string& key, double value) {
  *os_ << key << " d " << EncodeDouble(value) << '\n';
}

void Serializer::WriteString(const std::string& key,
                             const std::string& value) {
  *os_ << key << " s " << value.size() << ' ' << value << '\n';
}

void Serializer::WriteDoubleVector(const std::string& key,
                                   const std::vector<double>& values) {
  *os_ << key << " dv " << values.size();
  for (double v : values) *os_ << ' ' << EncodeDouble(v);
  *os_ << '\n';
}

void Serializer::WriteUint32Vector(const std::string& key,
                                   const std::vector<uint32_t>& values) {
  *os_ << key << " uv " << values.size();
  for (uint32_t v : values) *os_ << ' ' << v;
  *os_ << '\n';
}

void Serializer::WritePairs(
    const std::string& key,
    const std::vector<std::pair<uint32_t, double>>& pairs) {
  *os_ << key << " pv " << pairs.size();
  for (const auto& [index, value] : pairs) {
    *os_ << ' ' << index << ':' << EncodeDouble(value);
  }
  *os_ << '\n';
}

Deserializer::Deserializer(std::istream* is) : is_(is) {
  CDPIPE_CHECK(is_ != nullptr);
}

Result<std::string> Deserializer::NextPayload(const std::string& key,
                                              const std::string& type) {
  std::string line;
  if (!std::getline(*is_, line)) {
    return Status::IoError("checkpoint truncated; expected key '" + key +
                           "'");
  }
  const size_t first_space = line.find(' ');
  if (first_space == std::string::npos) {
    return Status::InvalidArgument("malformed checkpoint line: '" + line +
                                   "'");
  }
  const size_t second_space = line.find(' ', first_space + 1);
  const std::string got_key = line.substr(0, first_space);
  const std::string got_type =
      second_space == std::string::npos
          ? line.substr(first_space + 1)
          : line.substr(first_space + 1, second_space - first_space - 1);
  if (got_key != key) {
    return Status::InvalidArgument("checkpoint key mismatch: expected '" +
                                   key + "', found '" + got_key + "'");
  }
  if (got_type != type) {
    return Status::InvalidArgument("checkpoint type mismatch for '" + key +
                                   "': expected '" + type + "', found '" +
                                   got_type + "'");
  }
  return second_space == std::string::npos ? std::string()
                                           : line.substr(second_space + 1);
}

Result<int64_t> Deserializer::ReadInt(const std::string& key) {
  CDPIPE_ASSIGN_OR_RETURN(std::string payload, NextPayload(key, "i"));
  return ParseInt64(payload);
}

Result<double> Deserializer::ReadDouble(const std::string& key) {
  CDPIPE_ASSIGN_OR_RETURN(std::string payload, NextPayload(key, "d"));
  return DecodeDouble(std::string(StripWhitespace(payload)));
}

Result<std::string> Deserializer::ReadString(const std::string& key) {
  CDPIPE_ASSIGN_OR_RETURN(std::string payload, NextPayload(key, "s"));
  const size_t space = payload.find(' ');
  const std::string size_token =
      space == std::string::npos ? payload : payload.substr(0, space);
  CDPIPE_ASSIGN_OR_RETURN(int64_t size, ParseInt64(size_token));
  const std::string body =
      space == std::string::npos ? std::string() : payload.substr(space + 1);
  if (static_cast<int64_t>(body.size()) != size) {
    return Status::InvalidArgument("string length mismatch for '" + key +
                                   "'");
  }
  return body;
}

namespace {

Result<std::vector<std::string>> SplitPayload(const std::string& payload,
                                              const std::string& key) {
  std::vector<std::string> tokens;
  std::istringstream stream(payload);
  std::string token;
  while (stream >> token) tokens.push_back(token);
  if (tokens.empty()) {
    return Status::InvalidArgument("empty vector payload for '" + key + "'");
  }
  return tokens;
}

}  // namespace

Result<std::vector<double>> Deserializer::ReadDoubleVector(
    const std::string& key) {
  CDPIPE_ASSIGN_OR_RETURN(std::string payload, NextPayload(key, "dv"));
  CDPIPE_ASSIGN_OR_RETURN(auto tokens, SplitPayload(payload, key));
  CDPIPE_ASSIGN_OR_RETURN(int64_t count, ParseInt64(tokens[0]));
  if (static_cast<int64_t>(tokens.size()) != count + 1) {
    return Status::InvalidArgument("vector count mismatch for '" + key + "'");
  }
  std::vector<double> out;
  out.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    CDPIPE_ASSIGN_OR_RETURN(double v, DecodeDouble(tokens[i + 1]));
    out.push_back(v);
  }
  return out;
}

Result<std::vector<uint32_t>> Deserializer::ReadUint32Vector(
    const std::string& key) {
  CDPIPE_ASSIGN_OR_RETURN(std::string payload, NextPayload(key, "uv"));
  CDPIPE_ASSIGN_OR_RETURN(auto tokens, SplitPayload(payload, key));
  CDPIPE_ASSIGN_OR_RETURN(int64_t count, ParseInt64(tokens[0]));
  if (static_cast<int64_t>(tokens.size()) != count + 1) {
    return Status::InvalidArgument("vector count mismatch for '" + key + "'");
  }
  std::vector<uint32_t> out;
  out.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    CDPIPE_ASSIGN_OR_RETURN(int64_t v, ParseInt64(tokens[i + 1]));
    if (v < 0 || v > UINT32_MAX) {
      return Status::OutOfRange("uint32 out of range in '" + key + "'");
    }
    out.push_back(static_cast<uint32_t>(v));
  }
  return out;
}

Result<std::vector<std::pair<uint32_t, double>>> Deserializer::ReadPairs(
    const std::string& key) {
  CDPIPE_ASSIGN_OR_RETURN(std::string payload, NextPayload(key, "pv"));
  CDPIPE_ASSIGN_OR_RETURN(auto tokens, SplitPayload(payload, key));
  CDPIPE_ASSIGN_OR_RETURN(int64_t count, ParseInt64(tokens[0]));
  if (static_cast<int64_t>(tokens.size()) != count + 1) {
    return Status::InvalidArgument("pair count mismatch for '" + key + "'");
  }
  std::vector<std::pair<uint32_t, double>> out;
  out.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    const std::string& token = tokens[i + 1];
    const size_t colon = token.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument("malformed pair in '" + key + "'");
    }
    CDPIPE_ASSIGN_OR_RETURN(int64_t index,
                            ParseInt64(token.substr(0, colon)));
    CDPIPE_ASSIGN_OR_RETURN(double value,
                            DecodeDouble(token.substr(colon + 1)));
    if (index < 0 || index > UINT32_MAX) {
      return Status::OutOfRange("pair index out of range in '" + key + "'");
    }
    out.emplace_back(static_cast<uint32_t>(index), value);
  }
  return out;
}

Result<int64_t> CountFromDouble(double value, const char* what) {
  // 2^63 is the first double above every int64_t.
  if (!(value >= 0.0) || value >= 9223372036854775808.0 ||
      value != std::floor(value)) {
    return Status::InvalidArgument(std::string(what) +
                                   " is not a valid count: " +
                                   EncodeDouble(value));
  }
  return static_cast<int64_t>(value);
}

}  // namespace cdpipe
