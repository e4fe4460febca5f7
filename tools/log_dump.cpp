// rodain_log_dump — print a redo log in human-readable form.
//
//   rodain_log_dump <log-file-or-segment-dir> [--stats]
//
// The paper (§3) notes the stored logs can be used "for, for example,
// off-line analysis of the database usage" — this is that tool. A
// directory argument is treated as a segmented log: the per-segment
// inventory is printed first, then the concatenated records. With
// --stats it prints only the aggregate: record counts, committed vs open
// transactions, seq range, torn-tail status. With --ckpt <path> the
// checkpoint chain covering this log (manifest + base/delta artifacts)
// is inventoried first, so the truncation boundary the segments key off
// is visible next to the segments themselves.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>

#include "rodain/log/log_storage.hpp"
#include "rodain/log/segment.hpp"
#include "rodain/storage/ckpt_manifest.hpp"
#include "rodain/storage/fuzzy_checkpoint.hpp"

using namespace rodain;

namespace {

void print_checkpoint_chain(const std::string& ckpt_path) {
  const std::string manifest_path = storage::manifest_path_for(ckpt_path);
  auto m = storage::read_manifest_file(manifest_path);
  if (!m.is_ok()) {
    if (std::filesystem::exists(ckpt_path)) {
      std::printf("checkpoint: retired single-file format %s (no manifest;"
                  " recovery refuses it)\n\n",
                  ckpt_path.c_str());
    } else {
      std::printf("checkpoint: none (%s)\n\n",
                  m.status().to_string().c_str());
    }
    return;
  }
  std::printf("checkpoint chain (%s): %zu artifacts, covered through seq %"
              PRIu64 "\n",
              manifest_path.c_str(), m.value().entries.size(),
              m.value().covered_boundary());
  for (const auto& e : m.value().entries) {
    std::printf("  %-5s %-32s  boundary=%-8" PRIu64 " epoch=%-6" PRIu64
                " %" PRIu64 " bytes%s\n",
                e.kind == storage::ManifestEntry::Kind::kBase ? "base"
                                                              : "delta",
                e.file.c_str(), e.boundary, e.capture_epoch, e.bytes,
                std::filesystem::exists(storage::sibling_path(ckpt_path,
                                                              e.file))
                    ? ""
                    : "  [MISSING]");
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <log-file> [--stats] [--ckpt <checkpoint>]\n",
                 argv[0]);
    return 2;
  }
  bool stats_only = false;
  std::string ckpt_path;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stats") == 0) {
      stats_only = true;
    } else if (std::strcmp(argv[i], "--ckpt") == 0 && i + 1 < argc) {
      ckpt_path = argv[++i];
    }
  }
  if (!ckpt_path.empty()) print_checkpoint_chain(ckpt_path);

  bool torn = false;
  const bool is_dir = std::filesystem::is_directory(argv[1]);
  auto records = is_dir ? log::SegmentedLogStorage::read_all(argv[1], &torn)
                        : log::FileLogStorage::read_all(argv[1], &torn);
  if (!records.is_ok()) {
    std::fprintf(stderr, "cannot read %s: %s\n", argv[1],
                 records.status().to_string().c_str());
    return 1;
  }
  if (is_dir) {
    auto segments = log::SegmentedLogStorage::list_segments(argv[1]);
    if (segments.is_ok()) {
      std::printf("%zu segments in %s:\n", segments.value().size(), argv[1]);
      for (const auto& seg : segments.value()) {
        if (seg.last_seq == 0) {
          std::printf("  %-32s  first_seq=%-8" PRIu64 " (unsealed) %" PRIu64
                      " bytes\n",
                      std::filesystem::path(seg.path).filename().c_str(),
                      seg.first_seq, seg.bytes);
        } else {
          std::printf("  %-32s  seq [%" PRIu64 ", %" PRIu64 "] %" PRIu64
                      " bytes\n",
                      std::filesystem::path(seg.path).filename().c_str(),
                      seg.first_seq, seg.last_seq, seg.bytes);
        }
      }
      std::printf("\n");
    }
  }

  std::uint64_t writes = 0;
  std::uint64_t commits = 0;
  std::uint64_t bytes = 0;
  ValidationTs min_seq = ~ValidationTs{0};
  ValidationTs max_seq = 0;
  std::set<TxnId> open;
  std::map<ObjectId, std::uint64_t> hot;

  for (const log::Record& r : records.value()) {
    if (r.type == log::RecordType::kWriteImage) {
      ++writes;
      bytes += r.after.size();
      open.insert(r.txn);
      ++hot[r.oid];
      if (!stats_only) {
        std::printf("WRITE  txn=%-8" PRIu64 " oid=%-10" PRIu64 " %zu bytes\n",
                    r.txn, r.oid, r.after.size());
      }
    } else {
      ++commits;
      open.erase(r.txn);
      min_seq = std::min(min_seq, r.seq);
      max_seq = std::max(max_seq, r.seq);
      if (!stats_only) {
        std::printf("COMMIT txn=%-8" PRIu64 " seq=%-8" PRIu64
                    " serial=%-12" PRIu64 " writes=%u\n",
                    r.txn, r.seq, r.serial_ts, r.write_count);
      }
    }
  }

  std::printf("\n%s: %zu records (%" PRIu64 " writes / %" PRIu64
              " commits), %" PRIu64 " after-image bytes\n",
              argv[1], records.value().size(), writes, commits, bytes);
  if (commits > 0) {
    std::printf("seq range [%" PRIu64 ", %" PRIu64 "], %s\n", min_seq, max_seq,
                max_seq - min_seq + 1 == commits ? "dense (mirror-ordered)"
                                                 : "sparse/unordered");
  }
  std::printf("open (uncommitted) txns in log: %zu\n", open.size());
  if (torn) std::printf("NOTE: torn tail (incomplete final record)\n");
  if (!hot.empty()) {
    ObjectId hottest = hot.begin()->first;
    for (auto& [oid, n] : hot) {
      if (n > hot[hottest]) hottest = oid;
    }
    std::printf("hottest object: %" PRIu64 " (%" PRIu64 " writes)\n", hottest,
                hot[hottest]);
  }
  return 0;
}
