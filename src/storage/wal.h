// Write-ahead logging for the durable write path.
//
// WalWriter appends length+CRC-32C-framed records to a log file and makes
// them durable in groups: records accumulate in memory, and a *sync point*
// drains everything buffered with one pwrite + one fdatasync. Commit
// records trigger a sync point every `group_commit_window` commits, and
// EnsureDurable() lets the buffer pools force one before writing a page
// whose commit record is not yet durable (the WAL-before-data rule).
// Concurrent committers coalesce: the first caller to need durability
// becomes the leader and drains the whole buffer; waiters observe their LSN
// covered and return without issuing I/O of their own.
//
// Buffering in memory (rather than appending to the fd and deferring only
// the fdatasync) is a deliberate choice: a record that has not reached a
// sync point is genuinely absent from the file, so the crash-simulation
// tests get real torn-tail behavior without a kernel crash.
//
// The file starts with a 16-byte header (magic + format version). Version 3
// is the redo-only log described below. Version 2 had the same framing but
// could hold before-images that recovery had to undo, and the header-less
// version-1 logs used the IEEE CRC-32, so every one of their frames would
// fail the new check and look like a torn tail at byte 0. The reader
// refuses both with NotSupported, and recovery leaves such a log and its
// store alone for the binary that wrote it.
//
// The log is redo-only. The pools run no-steal within a commit: a page
// modified since the last commit stays in its frame (it is never an
// eviction victim) until the next commit logs it, so no uncommitted byte
// ever reaches the data file and the log needs no before-images. The
// record set is physiological: kPageImage records are full-page
// after-images, stored without their trailing zero bytes (a node page is
// zero past its last entry), and kCommit marks a commit boundary carrying
// the store's page count. Recovery (FilePageStore::OpenWithRecovery)
// replays the after-images covered by the last durable commit in LSN
// order, zero-filling each short image back to a full page, truncates the
// store to the committed page count and discards the torn tail by CRC;
// images after the last commit are simply ignored. kCheckpoint records let
// the log truncate: the writer restarts the file at a checkpoint because
// the caller has already flushed and fsynced every logged page into the
// data file. The pools checkpoint at a commit boundary whenever the log
// has grown past Options::checkpoint_bytes, so a long-lived writer's log
// stays bounded.
//
// Records are framed straight into one contiguous group buffer that is
// reused across sync points: a sync point swaps it with the (empty)
// buffer the previous sync point wrote, writes it with one pwrite and
// fdatasyncs, so steady-state appends allocate nothing.
//
// The spec's storage.wal.enabled is the only switch. It is off by default,
// and with it off no WAL object exists — counters and I/O are
// byte-identical to a run without a log.

#ifndef RTB_STORAGE_WAL_H_
#define RTB_STORAGE_WAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/page.h"
#include "util/result.h"
#include "util/status.h"

namespace rtb::storage {

/// Format version written into the file header. Version 1 had no header
/// and framed records with the IEEE CRC-32; version 2 could hold undo
/// (before-image) records.
constexpr uint32_t kWalFormatVersion = 3;
/// Bytes of the file header (8-byte magic, 4-byte version, 4 reserved).
constexpr size_t kWalFileHeaderSize = 16;
/// Default log size past which the pools checkpoint at the next commit
/// (WalWriter::Options::checkpoint_bytes).
constexpr uint64_t kWalCheckpointBytes = uint64_t{64} << 20;

/// CRC-32C (Castagnoli) of `len` bytes, continuing from `crc` (0 to
/// start). Runs on the SSE4.2 crc32 instruction when the CPU has it — the
/// choice is made once per process — and on slicing-by-8 otherwise.
uint32_t Crc32c(uint32_t crc, const uint8_t* data, size_t len);
/// The portable slicing-by-8 CRC-32C, whatever the CPU supports.
uint32_t Crc32cPortable(uint32_t crc, const uint8_t* data, size_t len);
/// True when Crc32c runs on the SSE4.2 instruction.
bool Crc32cHardware();

enum class WalRecordType : uint32_t {
  kPageImage = 1,   // Redo: page after-image minus trailing zero bytes.
  kCommit = 4,      // Commit boundary; payload = page count.
  kCheckpoint = 5,  // Log restart point; payload = page count.
};

/// One decoded log record (WalReader::Next).
struct WalRecord {
  WalRecordType type = WalRecordType::kPageImage;
  Lsn lsn = kNoLsn;
  PageId page_id = kInvalidPageId;  // Image records only.
  uint64_t num_pages = 0;           // Commit/checkpoint records only.
  std::vector<uint8_t> payload;     // Page prefix or page count.
};

/// Cumulative WalWriter counters. `fsyncs` counts durability points (one
/// per drained group), and advances even when the DurableSync seam has
/// turned the actual fdatasync syscall off — so fsync-per-commit
/// assertions are deterministic on any filesystem.
struct WalStats {
  uint64_t records = 0;
  uint64_t bytes = 0;
  uint64_t commits = 0;
  uint64_t fsyncs = 0;
  uint64_t checkpoints = 0;
};

/// Crash-simulation hook for WalWriter (see FaultInjectingPageStore's
/// CrashWalHook). Called at sync points, outside the writer's mutex.
class WalFaultHook {
 public:
  virtual ~WalFaultHook() = default;

  /// Called before the drained group's bytes go to the file. Returns how
  /// many of the `len` bytes the simulated disk accepts: `len` (the
  /// default) means no fault; anything smaller persists that prefix (a
  /// torn tail) and kills the writer.
  virtual size_t BeforeWrite(size_t len) { return len; }

  /// Called after the bytes are written, before fdatasync. True simulates
  /// dying at the sync: the bytes are in the file but were never forced.
  virtual bool FailSync() { return false; }
};

/// Appends framed records to a log file with group commit. Thread-safe:
/// appends take an internal mutex, and sync points coalesce concurrent
/// callers (leader/follower). A failed sync point is sticky — the writer
/// is dead, every later durability request returns the same error — which
/// is exactly the behavior a simulated crash needs.
class WalWriter {
 public:
  struct Options {
    /// Commit records per sync point. 1 = force at every commit (classic
    /// commit-per-batch durability); N > 1 defers: a commit returns after
    /// buffering its record, and every Nth commit drains the group with one
    /// pwrite + one fdatasync. Deferred commits are durable no later than
    /// the next sync point, eviction-forced EnsureDurable, or Close.
    uint64_t group_commit_window = 1;
    /// Log size (header included, buffered records counted) at which
    /// CheckpointDue() turns true, so the pools checkpoint at the next
    /// commit. Checkpoint cost grows with the log, so the bound also caps
    /// the stall of each one.
    uint64_t checkpoint_bytes = kWalCheckpointBytes;
    /// Crash-simulation hook (not owned; may be null).
    WalFaultHook* fault_hook = nullptr;
  };

  /// Creates (or truncates) the log at `path`, writes the file header and
  /// fsyncs it (honoring the DurableSync seam), so the log exists on disk
  /// before the first record claims durability.
  static Result<std::unique_ptr<WalWriter>> Create(const std::string& path,
                                                   Options options);
  static Result<std::unique_ptr<WalWriter>> Create(const std::string& path);

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  ~WalWriter();

  /// Buffer a full-page after-image; trailing zero bytes of `data` are
  /// not logged. Returns the record's LSN; the append itself cannot fail
  /// (I/O happens at sync points).
  Lsn AppendPageImage(PageId id, const uint8_t* data, size_t len);

  /// Buffer a commit record carrying the store's page count at commit, and
  /// drain the group when this is the window's Nth commit. Returns the
  /// commit record's LSN.
  Result<Lsn> Commit(uint64_t num_pages);

  /// Blocks until every record with LSN <= `lsn` is durable, draining the
  /// buffer (one pwrite + one fdatasync) if needed. kNoLsn is a no-op.
  Status EnsureDurable(Lsn lsn);

  /// True when record `lsn` is already durable (no I/O).
  bool Durable(Lsn lsn) const {
    return lsn <= durable_lsn_.load(std::memory_order_acquire);
  }

  /// Restarts the log: truncates the file back to its header and writes
  /// (durably) a single checkpoint record carrying the store's page count.
  /// Callers must have flushed and fsynced the data store first — the
  /// truncation assumes every previously logged page is durably in the
  /// store.
  Status Checkpoint(uint64_t num_pages);

  /// True once the log (header plus every record appended since the last
  /// restart, buffered or not) has reached Options::checkpoint_bytes.
  bool CheckpointDue() const {
    std::lock_guard<std::mutex> lock(mu_);
    return log_bytes_ >= options_.checkpoint_bytes;
  }

  /// Drains any buffered records durably and releases the descriptor.
  /// Idempotent. A dead (crashed) writer returns its sticky error without
  /// touching the file again.
  Status Close();

  /// LSN of the most recently buffered record (kNoLsn when none yet).
  Lsn last_lsn() const {
    std::lock_guard<std::mutex> lock(mu_);
    return buffered_lsn_;
  }

  WalStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

  const std::string& path() const { return path_; }

 private:
  WalWriter(std::string path, int fd, Options options)
      : path_(std::move(path)), fd_(fd), options_(options) {}

  // Frames one record at the end of pending_; returns its LSN. Requires
  // mu_.
  Lsn AppendLocked(WalRecordType type, PageId page_id, const uint8_t* payload,
                   size_t len);

  // Leader body of a sync point: swaps pending_ with the empty draining_
  // buffer, writes + syncs draining_ outside the lock, publishes
  // durable_lsn_ (or the sticky error) and wakes waiters. Requires mu_ held
  // via `lk` and !sync_in_progress_.
  Status DrainLocked(std::unique_lock<std::mutex>& lk);

  // One pwrite (looped over partial writes) + one fdatasync for the
  // drained group, applying the fault hook. Runs outside mu_; only the
  // single in-progress drainer touches draining_ and file_size_.
  Status WriteAndSync();

  std::string path_;
  int fd_ = -1;
  Options options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  // Framed records not yet handed to a sync point, back to back. Reused:
  // its capacity survives the swap with draining_.
  std::vector<uint8_t> pending_;
  // The group the in-progress sync point is writing; empty otherwise.
  std::vector<uint8_t> draining_;
  Lsn next_lsn_ = 1;
  Lsn buffered_lsn_ = kNoLsn;  // Last appended.
  std::atomic<Lsn> durable_lsn_{kNoLsn};
  uint64_t commits_since_sync_ = 0;
  bool sync_in_progress_ = false;
  Status sticky_error_;
  uint64_t file_size_ = kWalFileHeaderSize;
  uint64_t log_bytes_ = kWalFileHeaderSize;  // file_size_ + buffered records.
  WalStats stats_;
};

/// Sequential reader over a log file. Loads the file at Open (logs are
/// truncated at every checkpoint, so they stay near their bound) and
/// decodes records until the clean end or the first frame whose length or
/// CRC does not check out — a torn tail, which recovery discards.
class WalReader {
 public:
  /// Opens and loads the log. A file shorter than the header (a crash
  /// during Create, or a log recovery reset) reads as an empty log. A wrong
  /// magic or version is NotSupported; a missing file is NotFound.
  static Result<std::unique_ptr<WalReader>> Open(const std::string& path);

  WalReader(const WalReader&) = delete;
  WalReader& operator=(const WalReader&) = delete;

  /// Decodes the next record into `*out`. Returns false at the end of the
  /// valid prefix (clean EOF or torn tail — torn_tail() distinguishes).
  bool Next(WalRecord* out);

  /// True when the scan stopped at bytes that do not frame a valid record
  /// (short header, implausible length, or CRC mismatch).
  bool torn_tail() const { return torn_tail_; }

  /// File offset just past the last valid record.
  uint64_t valid_bytes() const { return valid_bytes_; }

 private:
  WalReader(std::vector<uint8_t> data, size_t start)
      : data_(std::move(data)), pos_(start), valid_bytes_(start) {}

  std::vector<uint8_t> data_;
  size_t pos_ = 0;
  uint64_t valid_bytes_ = 0;
  bool torn_tail_ = false;
  bool done_ = false;
};

}  // namespace rtb::storage

#endif  // RTB_STORAGE_WAL_H_
