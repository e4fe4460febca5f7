// rodain_ckpt_info — inspect a checkpoint artifact set.
//
//   rodain_ckpt_info <checkpoint-path>
//
// The path names the root of a checkpoint chain (<path>.manifest +
// <path>.b<N> / <path>.d<N> artifacts). Verifies every CRC, prints the
// chain inventory when a manifest exists, then the recovered-state
// summary: boundary sequence number, object count and size distribution.
#include <cinttypes>
#include <cstdio>
#include <filesystem>

#include "rodain/storage/ckpt_manifest.hpp"
#include "rodain/storage/fuzzy_checkpoint.hpp"

using namespace rodain;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <checkpoint-path>\n", argv[0]);
    return 2;
  }
  const std::string path = argv[1];
  const std::string manifest_path = storage::manifest_path_for(path);
  if (std::filesystem::exists(manifest_path)) {
    auto m = storage::read_manifest_file(manifest_path);
    if (!m.is_ok()) {
      std::fprintf(stderr, "corrupt manifest %s: %s\n", manifest_path.c_str(),
                   m.status().to_string().c_str());
    } else {
      std::printf("%s: chain of %zu artifacts, covered through seq %" PRIu64
                  "\n",
                  manifest_path.c_str(), m.value().entries.size(),
                  m.value().covered_boundary());
      for (const auto& e : m.value().entries) {
        std::printf("  %-5s %-32s  boundary=%-8" PRIu64 " epoch=%-6" PRIu64
                    " %" PRIu64 " bytes%s\n",
                    e.kind == storage::ManifestEntry::Kind::kBase ? "base"
                                                                  : "delta",
                    e.file.c_str(), e.boundary, e.capture_epoch, e.bytes,
                    std::filesystem::exists(
                        storage::sibling_path(path, e.file))
                        ? ""
                        : "  [MISSING]");
      }
      std::printf("\n");
    }
  }
  storage::ObjectStore store;
  auto meta = storage::load_checkpoint_artifacts(path, store);
  if (!meta.is_ok()) {
    std::fprintf(stderr, "cannot read %s: %s\n", path.c_str(),
                 meta.status().to_string().c_str());
    return 1;
  }
  std::size_t total_bytes = 0;
  std::size_t min_size = ~std::size_t{0};
  std::size_t max_size = 0;
  store.for_each([&](ObjectId, const storage::ObjectRecord& rec) {
    total_bytes += rec.value.size();
    min_size = std::min(min_size, rec.value.size());
    max_size = std::max(max_size, rec.value.size());
  });
  std::printf("%s: OK (CRC verified)\n", path.c_str());
  std::printf("  consistent through seq  %" PRIu64 "\n",
              meta.value().last_applied);
  std::printf("  objects                 %zu\n", store.size());
  std::printf("  payload bytes           %zu (min %zu / avg %zu / max %zu)\n",
              total_bytes, store.empty() ? 0 : min_size,
              store.empty() ? 0 : total_bytes / store.size(), max_size);
  return 0;
}
