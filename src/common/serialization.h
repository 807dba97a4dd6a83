// Minimal binary (de)serialization used to persist trained models and cached benchmark
// artifacts. The format is a magic tag + version header followed by explicitly written
// primitives; readers validate the header and fail loudly on mismatch.
#ifndef MOCC_SRC_COMMON_SERIALIZATION_H_
#define MOCC_SRC_COMMON_SERIALIZATION_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

namespace mocc {

// Streams primitives and vectors to a std::ostream in little-endian host order.
class BinaryWriter {
 public:
  // `magic` identifies the payload type (e.g. "MOCCMODL"); `version` allows evolution.
  BinaryWriter(std::ostream& out, const std::string& magic, uint32_t version);

  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI64(int64_t v);
  void WriteDouble(double v);
  void WriteString(const std::string& s);
  void WriteDoubleVector(const std::vector<double>& v);
  // Same bytes as WriteDoubleVector over n contiguous doubles.
  void WriteDoubleVector(const double* data, size_t n);

  bool ok() const { return out_.good(); }

 private:
  std::ostream& out_;
};

// Mirror of BinaryWriter. Constructor validates magic and version; all accessors return
// false / report !ok() once any read fails, so callers can check once at the end.
// Length-prefixed reads (strings, vectors) validate the declared size against the
// bytes actually remaining in a seekable stream before allocating, so a truncated or
// corrupt file fails cleanly instead of attempting a multi-gigabyte allocation.
class BinaryReader {
 public:
  BinaryReader(std::istream& in, const std::string& expected_magic, uint32_t expected_version);

  uint32_t ReadU32();
  uint64_t ReadU64();
  int64_t ReadI64();
  double ReadDouble();
  std::string ReadString();
  std::vector<double> ReadDoubleVector();

  // True iff the header matched and every read so far succeeded.
  bool ok() const { return ok_ && in_.good(); }

 private:
  // False iff the stream is seekable and holds fewer than `bytes` unread bytes.
  bool FitsRemaining(uint64_t bytes);

  std::istream& in_;
  bool ok_ = true;
  std::streamoff end_pos_ = -1;  // -1: non-seekable stream, bounds check disabled
};

// Convenience file helpers. Return false on I/O failure.
bool WriteFile(const std::string& path, const std::string& contents);
bool ReadFile(const std::string& path, std::string* contents);

// Writes `contents` to `path` via a temporary file in the same directory followed by an
// atomic rename, so readers (and a crash mid-write) only ever observe the old complete
// file or the new complete file — never a torn one. Returns false on I/O failure.
bool AtomicWriteFile(const std::string& path, const std::string& contents);

}  // namespace mocc

#endif  // MOCC_SRC_COMMON_SERIALIZATION_H_
