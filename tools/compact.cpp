// rodain_compact — offline log compaction.
//
//   rodain_compact <log-file> <output-checkpoint> [input-checkpoint]
//
// Replays the checkpoint chain (if given) plus the redo log, then writes a
// fresh one-base chain (<output>.manifest and its base file) consistent
// through the last committed transaction, replacing any chain already at
// <output>. After a successful compaction the old log can be truncated: a
// cold start needs only the new chain (plus whatever log the node appends
// afterwards).
#include <cinttypes>
#include <cstdio>

#include "rodain/log/recovery.hpp"
#include "rodain/storage/fuzzy_checkpoint.hpp"

using namespace rodain;

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(
        stderr,
        "usage: %s <log-file> <output-checkpoint> [input-checkpoint]\n",
        argv[0]);
    return 2;
  }
  const std::string log_path = argv[1];
  const std::string out_path = argv[2];
  const std::string in_ckpt = argc > 3 ? argv[3] : "";

  storage::ObjectStore store;
  storage::BPlusTree index;
  auto stats =
      log::recover_checkpoint_and_log(in_ckpt, log_path, store, &index);
  if (!stats.is_ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 stats.status().to_string().c_str());
    return 1;
  }
  storage::CheckpointChain chain(out_path);
  if (auto s = chain.write(store, index, stats.value().last_seq); !s) {
    std::fprintf(stderr, "cannot write %s: %s\n", out_path.c_str(),
                 s.to_string().c_str());
    return 1;
  }
  std::printf("compacted: %" PRIu64 " txns replayed (+%s), %zu objects, "
              "consistent through seq %" PRIu64 " -> %s\n",
              stats.value().committed_applied,
              in_ckpt.empty() ? "no base checkpoint" : in_ckpt.c_str(),
              store.size(), stats.value().last_seq, out_path.c_str());
  if (stats.value().incomplete_dropped > 0) {
    std::printf("note: %" PRIu64 " uncommitted txns in the log were dropped\n",
                stats.value().incomplete_dropped);
  }
  if (stats.value().torn_tail) {
    std::printf("note: the log had a torn tail (normal after a crash)\n");
  }
  return 0;
}
