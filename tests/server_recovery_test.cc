// Kill-during-load crash test: a forked child serves a WAL-backed tree
// (commit-per-drain), the parent pipelines inserts and SIGKILLs the child
// after a prefix of acks. The server replies to an update only after its
// drain's WAL commit, so every acked insert must survive
// FilePageStore::OpenWithRecovery — the committed-prefix contract that
// shows the serving tier composes with the PR 8 durability path. Runs
// under RTB_NO_FSYNC=1: the crash model kills the process, not the kernel,
// so bytes written to the log count as durable.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "net/serving.h"
#include "rtree/rtree.h"
#include "rtree/validate.h"
#include "storage/buffer_pool.h"
#include "storage/file_page_store.h"
#include "storage/wal.h"
#include "util/rng.h"

namespace rtb::net {
namespace {

using geom::Rect;

struct ChildHello {
  uint16_t port = 0;
  storage::PageId root = 0;
  uint16_t height = 0;
  uint32_t fanout = 0;
};

// Child body: open the durable stack, start the server, report through the
// pipe, serve until killed. Never returns.
[[noreturn]] void RunChild(const std::string& path, int pipe_fd) {
  engine::ExperimentSpec spec;
  spec.name = "server_recovery_child";
  spec.dataset.kind = "uniform";
  spec.dataset.n = 5000;
  spec.dataset.seed = 3;
  spec.tree.fanout = 50;
  spec.pool.buffer_pages = 64;
  spec.storage.backend = "file";
  spec.storage.path = path;
  spec.storage.wal.enabled = true;
  // Commit-per-drain: an acked update is logged-committed, no deferral.
  spec.storage.wal.group_commit_window = 1;

  auto stack = ServingStack::Open(spec);
  if (!stack.ok()) _exit(10);
  ServerOptions options;
  options.max_batch = 8;  // Many small drains => many commit points.
  options.max_wait_us = 200;
  Server server(stack->get(), options);
  if (!server.Start().ok()) _exit(11);

  ChildHello hello;
  hello.port = server.port();
  hello.root = (*stack)->tree()->root();
  hello.height = (*stack)->tree()->height();
  hello.fanout = spec.tree.fanout;
  if (write(pipe_fd, &hello, sizeof hello) != sizeof hello) _exit(12);
  close(pipe_fd);

  server.Serve().ok();  // Runs until SIGKILL.
  _exit(13);
}

TEST(ServerRecoveryTest, KilledServerRecoversCommittedPrefix) {
  const std::string path = "/tmp/rtb_server_recovery_test.store";
  const std::string wal_path = path + ".wal";
  std::remove(path.c_str());
  std::remove(wal_path.c_str());

  int pipe_fds[2];
  ASSERT_EQ(pipe(pipe_fds), 0);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    close(pipe_fds[0]);
    RunChild(path, pipe_fds[1]);
  }
  close(pipe_fds[1]);

  ChildHello hello;
  ASSERT_EQ(read(pipe_fds[0], &hello, sizeof hello),
            static_cast<ssize_t>(sizeof hello))
      << "child failed to start";
  close(pipe_fds[0]);

  // Pipeline a long insert stream; harvest acks until the target, then
  // kill the server mid-load with requests still in flight.
  constexpr size_t kInserts = 400;
  constexpr size_t kAckTarget = 120;
  Rng rng(17);
  std::vector<Rect> rects;
  for (size_t i = 0; i < kInserts; ++i) {
    const double x = rng.NextDouble();
    const double y = rng.NextDouble();
    rects.push_back(Rect(x, y, x, y));
  }

  auto client = Client::Connect(hello.port);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < kInserts; ++i) {
    ids.push_back((*client)->QueueInsert(rects[i], 2'000'000 + i));
  }
  ASSERT_TRUE((*client)->Flush().ok());

  size_t acked = 0;
  std::vector<size_t> acked_idx;
  while (acked < kAckTarget) {
    auto reply = (*client)->ReadReply();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_TRUE(reply->ok()) << reply->text;
    // Request ids are 1-based in queue order.
    acked_idx.push_back(reply->request_id - 1);
    ++acked;
  }
  ASSERT_EQ(kill(child, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus));

  // Recover. The log may end in a torn tail (killed mid-drain); the
  // committed prefix must replay cleanly.
  storage::WalRecoveryReport report;
  auto store =
      storage::FilePageStore::OpenWithRecovery(path, wal_path, &report);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE(report.wal_found);
  EXPECT_GT(report.records_scanned, 1u) << "load must have produced commits";

  // The recovered tree is structurally valid and holds the bulk-loaded
  // entries plus every committed insert — in particular all acked ones.
  const auto config = rtree::RTreeConfig::WithFanout(hello.fanout);
  const auto validation = rtree::ValidateTree(store->get(), hello.root,
                                              config,
                                              {.check_min_fill = false});
  ASSERT_TRUE(validation.ok) << (validation.issues.empty()
                                     ? "?"
                                     : validation.issues.front());
  EXPECT_GE(validation.num_data_entries, 5000u + kAckTarget);
  EXPECT_LE(validation.num_data_entries, 5000u + kInserts);

  auto pool = storage::BufferPool::MakeLru(store->get(), 128);
  auto tree = rtree::RTree::Open(pool.get(), config, hello.root,
                                 hello.height);
  ASSERT_TRUE(tree.ok());
  for (const size_t idx : acked_idx) {
    std::vector<rtree::ObjectId> found;
    ASSERT_TRUE(tree->Search(rects[idx], &found).ok());
    const rtree::ObjectId want = 2'000'000 + idx;
    EXPECT_NE(std::find(found.begin(), found.end(), want), found.end())
        << "acked insert " << idx << " lost by recovery";
  }
  ASSERT_TRUE(pool->Close().ok());
  ASSERT_TRUE((*store)->Close().ok());
  std::remove(path.c_str());
  std::remove(wal_path.c_str());
}

}  // namespace
}  // namespace rtb::net
