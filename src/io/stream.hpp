#ifndef XFC_IO_STREAM_HPP
#define XFC_IO_STREAM_HPP

/// \file stream.hpp
/// Byte-source/sink abstractions decoupling the archive subsystem from its
/// storage: an ArchiveWriter appends through a ByteSink (memory vector or
/// streaming file) and an ArchiveReader seeks through a ByteSource (borrowed
/// span or random-access file). Both interfaces are deliberately tiny —
/// append-only on the write side, positional reads on the read side — so a
/// future network- or object-store-backed implementation slots in without
/// touching the format code.

#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "io/file.hpp"

namespace xfc {

/// Append-only byte sink. `size()` doubles as the write cursor: the archive
/// writer records tile offsets by reading it before each append.
class ByteSink {
 public:
  virtual ~ByteSink() = default;
  virtual void append(std::span<const std::uint8_t> data) = 0;
  virtual std::size_t size() const = 0;
  /// Forces buffered bytes to the OS; no-op for unbuffered sinks.
  virtual void flush() {}
  /// Durability barrier: every byte appended so far must be on stable
  /// storage when this returns (fsync for AppendFileSink; FileSink only
  /// flushes, because nothing is published before its commit() fsyncs).
  /// The epoch commit protocol orders its writes around this call, so a
  /// sink that cannot provide the barrier must at least not reorder
  /// appends.
  virtual void sync() { flush(); }
  /// Marks the stream complete and publishes it atomically where the sink
  /// supports it (FileSink writes to a temp path and renames here, so a
  /// crash mid-write never leaves a truncated archive under the final
  /// name). The archive writer calls this once from finish(); the default
  /// just flushes.
  virtual void commit() { flush(); }
};

/// In-memory sink; `take()` hands the accumulated archive to the caller.
/// The initial-bytes constructor seeds the sink with an existing archive so
/// a resumed ArchiveWriter can extend it in memory (size() continues from
/// the seed, exactly like appending to a file).
class VectorSink final : public ByteSink {
 public:
  VectorSink() = default;
  explicit VectorSink(std::vector<std::uint8_t> initial)
      : bytes_(std::move(initial)) {}
  void append(std::span<const std::uint8_t> data) override;
  std::size_t size() const override { return bytes_.size(); }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Streaming file sink: bytes hit the OS as they are appended, so writer
/// memory stays bounded no matter how large the archive grows. Throws
/// IoError on open/write failure.
///
/// Crash-safe publication: bytes stream into `path + ".tmp"`; commit()
/// flushes, fsyncs and renames the temp file onto the final path, so the
/// final name only ever holds a complete stream. An uncommitted sink (an
/// exception mid-write, an injected torn write) removes its temp file on
/// destruction and leaves any previous file at the final path untouched.
class FileSink final : public ByteSink {
 public:
  explicit FileSink(const std::string& path);
  ~FileSink() override;
  void append(std::span<const std::uint8_t> data) override;
  std::size_t size() const override { return written_; }
  void flush() override;
  void commit() override;

 private:
  std::ofstream out_;
  std::size_t written_ = 0;
  std::string path_;
  std::string tmp_path_;
  bool committed_ = false;
};

namespace detail {
/// Test hook: while > 0, FileSink::commit() treats the directory fsync as
/// failed (each failure decrements the count). The rename has already
/// happened when that fsync runs, so the regression test can assert both
/// the thrown IoError and that the published file was not deleted.
extern std::atomic<int> g_fail_dir_fsync_for_tests;
}  // namespace detail

/// In-place appending file sink — the storage half of the epoch-commit
/// protocol a resumed ArchiveWriter seals (archive_writer.hpp). Unlike
/// FileSink there is no temp file and no rename: bytes are written
/// directly at the end of `path` (created if absent), because an
/// appendable archive's commit point is its newest valid trailer, not a
/// directory entry. `resume_at` is the logical size of the last sealed
/// epoch: any bytes past it (a torn tail from a previous crashed append)
/// are truncated away before writing, which is exactly the
/// absent-never-wrong recovery contract applied to the write path.
///
/// sync() is a real fsync (throws IoError on failure); commit() is just
/// sync() — publication is the caller's trailer write, not a rename.
class AppendFileSink final : public ByteSink {
 public:
  AppendFileSink(const std::string& path, std::size_t resume_at);
  ~AppendFileSink() override;
  void append(std::span<const std::uint8_t> data) override;
  std::size_t size() const override { return written_; }
  void sync() override;
  void commit() override { sync(); }

 private:
  int fd_ = -1;
  std::size_t written_ = 0;
  std::string path_;
};

/// Positional-read byte source.
class ByteSource {
 public:
  virtual ~ByteSource() = default;
  virtual std::size_t size() const = 0;
  /// Reads exactly out.size() bytes at `offset`; throws (IoError or
  /// CorruptStream) if the range is out of bounds.
  virtual void read_at(std::size_t offset,
                       std::span<std::uint8_t> out) const = 0;

  /// Convenience: allocate-and-read.
  std::vector<std::uint8_t> read_vec(std::size_t offset,
                                     std::size_t n) const {
    std::vector<std::uint8_t> out(n);
    read_at(offset, out);
    return out;
  }
};

/// Borrows an in-memory archive; the span must outlive the source.
class MemorySource final : public ByteSource {
 public:
  explicit MemorySource(std::span<const std::uint8_t> data) : data_(data) {}
  std::size_t size() const override { return data_.size(); }
  void read_at(std::size_t offset, std::span<std::uint8_t> out) const override;

 private:
  std::span<const std::uint8_t> data_;
};

/// File-backed source over RandomAccessFile (thread-safe positional reads).
class FileSource final : public ByteSource {
 public:
  explicit FileSource(const std::string& path) : file_(path) {}
  std::size_t size() const override { return file_.size(); }
  void read_at(std::size_t offset, std::span<std::uint8_t> out) const override {
    file_.read_at(offset, out);
  }

 private:
  RandomAccessFile file_;
};

}  // namespace xfc

#endif  // XFC_IO_STREAM_HPP
