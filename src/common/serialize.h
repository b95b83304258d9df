// Copyright 2026 mpqopt authors.
//
// Byte-exact binary serialization used by the simulated network layer.
// Every message exchanged between the MPQ/SMA master and the workers is
// actually encoded through these writers/readers, so the "network bytes"
// reported by the benchmarks are real payload sizes, not estimates
// (mirroring the paper, which serialized Java objects over the wire).
//
// Encoding: little-endian fixed-width integers, IEEE-754 doubles, and
// varint-style unsigned counts are deliberately avoided — fixed widths keep
// the byte accounting easy to reason about in tests.
//
// Determinism contract: encoding the same value sequence always produces
// byte-identical buffers, on every platform. The plan-cache fingerprints
// (plancache/fingerprint.h) hash these bytes as the cache key, so any
// nondeterminism here would silently break memoized serving;
// tests/serialize_determinism_test.cc is the regression gate.

#ifndef MPQOPT_COMMON_SERIALIZE_H_
#define MPQOPT_COMMON_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"

namespace mpqopt {

/// Append-only binary encoder.
///
/// By default the writer owns its buffer. The external-buffer constructor
/// instead appends into a caller-owned vector (after whatever it already
/// holds) — the zero-copy scatter path uses this to assemble per-partition
/// requests directly in the buffers the transport sends from, with no
/// intermediate copy. size() always reports the bytes written through
/// *this* writer, regardless of mode.
class ByteWriter {
 public:
  ByteWriter() : buffer_(&owned_) {}
  /// Appends into `*sink` (not cleared; writes land after existing bytes).
  /// `*sink` must outlive the writer.
  explicit ByteWriter(std::vector<uint8_t>* sink)
      : buffer_(sink), start_(sink->size()) {}

  // Not copyable/movable: owning mode holds a pointer into itself.
  ByteWriter(const ByteWriter&) = delete;
  ByteWriter& operator=(const ByteWriter&) = delete;

  void WriteU8(uint8_t v) { buffer_->push_back(v); }

  /// Canonical bool encoding: exactly 0 or 1, never other truthy bytes
  /// (keeps fingerprints of logically equal values byte-identical).
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }

  void WriteU32(uint32_t v) { WriteRaw(&v, sizeof(v)); }

  void WriteU64(uint64_t v) { WriteRaw(&v, sizeof(v)); }

  void WriteI64(int64_t v) { WriteRaw(&v, sizeof(v)); }

  void WriteDouble(double v) { WriteRaw(&v, sizeof(v)); }

  void WriteString(const std::string& s) {
    WriteU32(static_cast<uint32_t>(s.size()));
    WriteRaw(s.data(), s.size());
  }

  /// Appends `n` raw bytes verbatim (for splicing pre-encoded fragments).
  void WriteBytes(const uint8_t* data, size_t n) { WriteRaw(data, n); }

  const std::vector<uint8_t>& buffer() const { return *buffer_; }
  /// Only valid in owning mode.
  std::vector<uint8_t> Release() { return std::move(owned_); }
  /// Bytes written through this writer (excludes pre-existing sink bytes).
  size_t size() const { return buffer_->size() - start_; }

 private:
  void WriteRaw(const void* data, size_t n) {
    // An empty source vector's data() may be null, and memcpy from null
    // is undefined even for zero bytes.
    if (n == 0) return;
    const size_t old = buffer_->size();
    buffer_->resize(old + n);
    std::memcpy(buffer_->data() + old, data, n);
  }

  std::vector<uint8_t> owned_;
  std::vector<uint8_t>* buffer_;
  size_t start_ = 0;
};

/// Encodes `v` exactly as ByteWriter::WriteU64 would, into a caller-owned
/// 8-byte slot. The session wire format prepends a u64 session id to
/// payloads workers parse with ByteReader::ReadU64; span-assembled frames
/// use this to stay byte-identical with the legacy copy-assembled path.
inline void EncodeU64(uint64_t v, uint8_t out[8]) { std::memcpy(out, &v, 8); }

/// Sequential binary decoder with bounds checking. Decoding failures
/// surface as Status::Corruption rather than undefined behaviour so that a
/// malformed message from a (simulated) remote node cannot crash the master.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size)
      : data_(data), size_(size), pos_(0) {}
  explicit ByteReader(const std::vector<uint8_t>& buffer)
      : ByteReader(buffer.data(), buffer.size()) {}

  Status ReadU8(uint8_t* out) { return ReadRaw(out, sizeof(*out)); }

  Status ReadBool(bool* out) {
    uint8_t v = 0;
    Status s = ReadU8(&v);
    if (!s.ok()) return s;
    if (v > 1) return Status::Corruption("bool byte is neither 0 nor 1");
    *out = v != 0;
    return Status::OK();
  }

  Status ReadU32(uint32_t* out) { return ReadRaw(out, sizeof(*out)); }
  Status ReadU64(uint64_t* out) { return ReadRaw(out, sizeof(*out)); }
  Status ReadI64(int64_t* out) { return ReadRaw(out, sizeof(*out)); }
  Status ReadDouble(double* out) { return ReadRaw(out, sizeof(*out)); }

  Status ReadString(std::string* out) {
    uint32_t n = 0;
    Status s = ReadU32(&n);
    if (!s.ok()) return s;
    if (pos_ + n > size_) {
      return Status::Corruption("string length exceeds buffer");
    }
    out->assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return Status::OK();
  }

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

  /// Raw view of the unread suffix, for hot-loop decoders that do their
  /// own pointer-comparison bounds checks (see plan_serde.cc). Pair with
  /// Advance() to commit however many bytes the raw decoder consumed.
  const uint8_t* cursor() const { return data_ + pos_; }
  void Advance(size_t n) {
    MPQOPT_DCHECK(n <= remaining());
    pos_ += n;
  }

 private:
  Status ReadRaw(void* out, size_t n) {
    if (pos_ + n > size_) {
      return Status::Corruption("read past end of buffer");
    }
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_;
};

}  // namespace mpqopt

#endif  // MPQOPT_COMMON_SERIALIZE_H_
