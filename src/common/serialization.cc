#include "src/common/serialization.h"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace mocc {

BinaryWriter::BinaryWriter(std::ostream& out, const std::string& magic, uint32_t version)
    : out_(out) {
  out_.write(magic.data(), static_cast<std::streamsize>(magic.size()));
  WriteU32(static_cast<uint32_t>(magic.size()));
  WriteU32(version);
}

void BinaryWriter::WriteU32(uint32_t v) {
  out_.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void BinaryWriter::WriteU64(uint64_t v) {
  out_.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void BinaryWriter::WriteI64(int64_t v) {
  out_.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void BinaryWriter::WriteDouble(double v) {
  out_.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void BinaryWriter::WriteString(const std::string& s) {
  WriteU64(s.size());
  out_.write(s.data(), static_cast<std::streamsize>(s.size()));
}

void BinaryWriter::WriteDoubleVector(const std::vector<double>& v) {
  WriteDoubleVector(v.data(), v.size());
}

void BinaryWriter::WriteDoubleVector(const double* data, size_t n) {
  WriteU64(n);
  if (n != 0) {
    out_.write(reinterpret_cast<const char*>(data),
               static_cast<std::streamsize>(n * sizeof(double)));
  }
}

BinaryReader::BinaryReader(std::istream& in, const std::string& expected_magic,
                           uint32_t expected_version)
    : in_(in) {
  // Record the stream end so length-prefixed reads can reject sizes that exceed the
  // bytes actually present (corrupt/truncated files) before allocating.
  const std::istream::pos_type start = in_.tellg();
  if (start != std::istream::pos_type(-1)) {
    in_.seekg(0, std::ios::end);
    const std::istream::pos_type end = in_.tellg();
    if (end != std::istream::pos_type(-1)) {
      end_pos_ = static_cast<std::streamoff>(end);
    }
    in_.seekg(start);
  }
  in_.clear();
  std::string magic(expected_magic.size(), '\0');
  in_.read(magic.data(), static_cast<std::streamsize>(magic.size()));
  const uint32_t magic_len = ReadU32();
  const uint32_t version = ReadU32();
  if (!in_.good() || magic != expected_magic || magic_len != expected_magic.size() ||
      version != expected_version) {
    ok_ = false;
  }
}

uint32_t BinaryReader::ReadU32() {
  uint32_t v = 0;
  in_.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in_.good()) {
    ok_ = false;
  }
  return v;
}

uint64_t BinaryReader::ReadU64() {
  uint64_t v = 0;
  in_.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in_.good()) {
    ok_ = false;
  }
  return v;
}

int64_t BinaryReader::ReadI64() {
  int64_t v = 0;
  in_.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in_.good()) {
    ok_ = false;
  }
  return v;
}

double BinaryReader::ReadDouble() {
  double v = 0.0;
  in_.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in_.good()) {
    ok_ = false;
  }
  return v;
}

bool BinaryReader::FitsRemaining(uint64_t bytes) {
  if (end_pos_ < 0) {
    return true;
  }
  const std::istream::pos_type cur = in_.tellg();
  if (cur == std::istream::pos_type(-1)) {
    return true;
  }
  const std::streamoff remaining = end_pos_ - static_cast<std::streamoff>(cur);
  return remaining >= 0 && bytes <= static_cast<uint64_t>(remaining);
}

std::string BinaryReader::ReadString() {
  const uint64_t size = ReadU64();
  if (!ok_ || size > (1ULL << 32) || !FitsRemaining(size)) {
    ok_ = false;
    return {};
  }
  std::string s(size, '\0');
  in_.read(s.data(), static_cast<std::streamsize>(size));
  if (!in_.good() && size > 0) {
    ok_ = false;
  }
  return s;
}

std::vector<double> BinaryReader::ReadDoubleVector() {
  const uint64_t size = ReadU64();
  if (!ok_ || size > (1ULL << 32) || !FitsRemaining(size * sizeof(double))) {
    ok_ = false;
    return {};
  }
  std::vector<double> v(size, 0.0);
  if (size > 0) {
    in_.read(reinterpret_cast<char*>(v.data()),
             static_cast<std::streamsize>(size * sizeof(double)));
    if (!in_.good()) {
      ok_ = false;
    }
  }
  return v;
}

bool WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return false;
  }
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  return out.good();
}

bool AtomicWriteFile(const std::string& path, const std::string& contents) {
  const std::string tmp_path = path + ".tmp";
  if (!WriteFile(tmp_path, contents)) {
    return false;
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return false;
  }
  return true;
}

bool ReadFile(const std::string& path, std::string* contents) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *contents = buf.str();
  return true;
}

}  // namespace mocc
