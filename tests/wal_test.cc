// Framing and group-commit units for storage::WalWriter / WalReader:
//
//   * round trip — every record type survives write + read with its LSN,
//     page id, payload and page-count field intact;
//   * durability buffering — records buffered under a deferred window are
//     genuinely absent from the file until a sync point (the property the
//     crash tests rely on), and EnsureDurable drains them;
//   * group commit — window 1 forces one fsync per commit, window N one
//     per N commits, and Close drains the remainder;
//   * corruption — a flipped bit or a truncated tail stops the reader at
//     the last whole record with torn_tail() set, never a bad decode;
//   * checkpoint — restarts the file with a single checkpoint record;
//   * sticky death — a failed sync point kills the writer permanently.
//
// Runs with the DurableSync seam off: WalStats::fsyncs counts durability
// points, not syscalls, so the counts are exact on any filesystem.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/fault_injection.h"
#include "storage/page_store.h"
#include "storage/wal.h"

namespace rtb::storage {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_durable_ = DurableSyncActive();
    SetDurableSync(false);
  }
  void TearDown() override { SetDurableSync(was_durable_); }

  std::string Path(const char* name) {
    return ::testing::TempDir() + "/rtb_wal_" + std::to_string(::getpid()) +
           "_" + name;
  }

  static uint64_t FileSize(const std::string& path) {
    struct stat st {};
    return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                          : 0;
  }

  static std::vector<uint8_t> Bytes(size_t n, uint8_t seed) {
    std::vector<uint8_t> out(n);
    for (size_t i = 0; i < n; ++i) out[i] = static_cast<uint8_t>(seed + i);
    return out;
  }

  static std::vector<WalRecord> ReadAll(const std::string& path,
                                        bool* torn = nullptr) {
    auto reader = WalReader::Open(path);
    EXPECT_TRUE(reader.ok()) << reader.status().ToString();
    std::vector<WalRecord> records;
    WalRecord rec;
    while ((*reader)->Next(&rec)) records.push_back(rec);
    if (torn != nullptr) *torn = (*reader)->torn_tail();
    return records;
  }

  bool was_durable_ = false;
};

TEST_F(WalTest, RejectsZeroWindow) {
  WalWriter::Options options;
  options.group_commit_window = 0;
  auto writer = WalWriter::Create(Path("zero_window"), options);
  EXPECT_EQ(writer.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(WalTest, RoundTripsEveryRecordType) {
  const std::string path = Path("round_trip");
  auto writer = WalWriter::Create(path);  // Window 1.
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  const std::vector<uint8_t> after = Bytes(64, 10);
  const std::vector<uint8_t> before = Bytes(64, 90);
  const std::vector<uint8_t> logical = Bytes(24, 7);
  EXPECT_EQ((*writer)->AppendPageImage(3, after.data(), after.size()), 1u);
  EXPECT_EQ((*writer)->AppendBeforeImage(4, before.data(), before.size()),
            2u);
  EXPECT_EQ((*writer)->AppendLogicalUpdate(logical.data(), logical.size()),
            3u);
  auto commit = (*writer)->Commit(/*num_pages=*/17);
  ASSERT_TRUE(commit.ok());
  EXPECT_EQ(*commit, 4u);
  EXPECT_TRUE((*writer)->Durable(*commit));  // Window 1 forces the group.
  ASSERT_TRUE((*writer)->Close().ok());

  bool torn = true;
  const std::vector<WalRecord> records = ReadAll(path, &torn);
  EXPECT_FALSE(torn);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].type, WalRecordType::kPageImage);
  EXPECT_EQ(records[0].lsn, 1u);
  EXPECT_EQ(records[0].page_id, 3u);
  EXPECT_EQ(records[0].payload, after);
  EXPECT_EQ(records[1].type, WalRecordType::kBeforeImage);
  EXPECT_EQ(records[1].page_id, 4u);
  EXPECT_EQ(records[1].payload, before);
  EXPECT_EQ(records[2].type, WalRecordType::kLogicalUpdate);
  EXPECT_EQ(records[2].payload, logical);
  EXPECT_EQ(records[3].type, WalRecordType::kCommit);
  EXPECT_EQ(records[3].lsn, 4u);
  EXPECT_EQ(records[3].num_pages, 17u);
}

TEST_F(WalTest, DeferredRecordsStayOutOfTheFileUntilASyncPoint) {
  const std::string path = Path("deferred");
  WalWriter::Options options;
  options.group_commit_window = 8;
  auto writer = WalWriter::Create(path, options);
  ASSERT_TRUE(writer.ok());
  const std::vector<uint8_t> image = Bytes(32, 1);
  (*writer)->AppendPageImage(0, image.data(), image.size());
  auto commit = (*writer)->Commit(1);
  ASSERT_TRUE(commit.ok());
  // Two records buffered, no sync point yet: the file must not contain
  // them — that is what makes a simulated crash lose exactly the
  // unsynced suffix.
  EXPECT_EQ(FileSize(path), 0u);
  EXPECT_FALSE((*writer)->Durable(*commit));
  EXPECT_EQ((*writer)->stats().fsyncs, 0u);

  ASSERT_TRUE((*writer)->EnsureDurable(*commit).ok());
  EXPECT_TRUE((*writer)->Durable(*commit));
  EXPECT_EQ((*writer)->stats().fsyncs, 1u);
  EXPECT_GT(FileSize(path), 0u);
  ASSERT_TRUE((*writer)->Close().ok());
  EXPECT_EQ(ReadAll(path).size(), 2u);
}

TEST_F(WalTest, GroupCommitCoalescesDurabilityPoints) {
  const std::vector<uint8_t> image = Bytes(48, 3);

  // Window 1: every commit is its own durability point.
  auto forced = WalWriter::Create(Path("window1"));
  ASSERT_TRUE(forced.ok());
  for (int i = 0; i < 8; ++i) {
    (*forced)->AppendPageImage(0, image.data(), image.size());
    ASSERT_TRUE((*forced)->Commit(1).ok());
  }
  EXPECT_EQ((*forced)->stats().commits, 8u);
  EXPECT_EQ((*forced)->stats().fsyncs, 8u);
  ASSERT_TRUE((*forced)->Close().ok());

  // Window 8: sixteen commits drain twice.
  WalWriter::Options options;
  options.group_commit_window = 8;
  auto grouped = WalWriter::Create(Path("window8"), options);
  ASSERT_TRUE(grouped.ok());
  for (int i = 0; i < 16; ++i) {
    (*grouped)->AppendPageImage(0, image.data(), image.size());
    ASSERT_TRUE((*grouped)->Commit(1).ok());
  }
  EXPECT_EQ((*grouped)->stats().commits, 16u);
  EXPECT_EQ((*grouped)->stats().fsyncs, 2u);

  // A partial group (3 more commits) drains once on Close.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*grouped)->Commit(1).ok());
  }
  EXPECT_EQ((*grouped)->stats().fsyncs, 2u);
  ASSERT_TRUE((*grouped)->Close().ok());
  EXPECT_EQ((*grouped)->stats().fsyncs, 3u);
}

TEST_F(WalTest, ReaderRejectsAFlippedBit) {
  const std::string path = Path("crc");
  auto writer = WalWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*writer)->Commit(1).ok());  // 24B header + 8B payload each.
  }
  ASSERT_TRUE((*writer)->Close().ok());
  ASSERT_EQ(ReadAll(path).size(), 3u);

  // Flip one payload bit of the middle record.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(32 + 24);
    char b = 0;
    f.read(&b, 1);
    f.seekp(32 + 24);
    b = static_cast<char>(b ^ 0x01);
    f.write(&b, 1);
  }
  bool torn = false;
  const std::vector<WalRecord> records = ReadAll(path, &torn);
  EXPECT_TRUE(torn);
  ASSERT_EQ(records.size(), 1u);  // The scan stops at the bad frame.
  EXPECT_EQ(records[0].lsn, 1u);
}

TEST_F(WalTest, ReaderStopsAtATruncatedTail) {
  const std::string path = Path("torn");
  auto writer = WalWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Commit(1).ok());
  ASSERT_TRUE((*writer)->Commit(2).ok());
  ASSERT_TRUE((*writer)->Close().ok());
  const uint64_t full = FileSize(path);
  ASSERT_TRUE(::truncate(path.c_str(), static_cast<off_t>(full - 5)) == 0);

  bool torn = false;
  const std::vector<WalRecord> records = ReadAll(path, &torn);
  EXPECT_TRUE(torn);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].num_pages, 1u);

  auto reader = WalReader::Open(path);
  ASSERT_TRUE(reader.ok());
  WalRecord rec;
  while ((*reader)->Next(&rec)) {
  }
  EXPECT_EQ((*reader)->valid_bytes(), full / 2);  // One whole record.
}

TEST_F(WalTest, CheckpointRestartsTheLog) {
  const std::string path = Path("checkpoint");
  auto writer = WalWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  const std::vector<uint8_t> image = Bytes(128, 5);
  for (int i = 0; i < 4; ++i) {
    (*writer)->AppendPageImage(static_cast<PageId>(i), image.data(),
                               image.size());
    ASSERT_TRUE((*writer)->Commit(i + 1).ok());
  }
  const uint64_t before = FileSize(path);
  ASSERT_TRUE((*writer)->Checkpoint(/*num_pages=*/4).ok());
  EXPECT_LT(FileSize(path), before);

  std::vector<WalRecord> records = ReadAll(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, WalRecordType::kCheckpoint);
  EXPECT_EQ(records[0].num_pages, 4u);

  // The log keeps working after the restart, with LSNs still monotonic.
  (*writer)->AppendPageImage(0, image.data(), image.size());
  ASSERT_TRUE((*writer)->Commit(4).ok());
  ASSERT_TRUE((*writer)->Close().ok());
  records = ReadAll(path);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_GT(records[1].lsn, records[0].lsn);
}

TEST_F(WalTest, AFailedSyncPointIsSticky) {
  CrashClock clock;
  CrashWalHook hook(&clock);
  WalWriter::Options options;
  options.fault_hook = &hook;
  auto writer = WalWriter::Create(Path("sticky"), options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Commit(1).ok());

  clock.budget = 0;  // The next sync point dies.
  EXPECT_FALSE((*writer)->Commit(1).ok());
  // Dead forever after, without touching the clock again.
  EXPECT_FALSE((*writer)->Commit(1).ok());
  EXPECT_FALSE((*writer)->EnsureDurable((*writer)->last_lsn()).ok());
  EXPECT_FALSE((*writer)->Close().ok());
}

}  // namespace
}  // namespace rtb::storage
