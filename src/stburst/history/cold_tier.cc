#include "stburst/history/cold_tier.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "stburst/common/logging.h"
#include "stburst/common/statusor.h"

namespace stburst {
namespace {

// On-disk layout (version 1, little-endian; field-by-field contract in
// docs/STORAGE.md — keep the two in lockstep):
//
//   [0, 64)   header (kHeader below, fixed 64 bytes)
//   [64, ...) payload:
//     term_offsets  (num_terms + 1) x u64   row range of term t is
//                                  [term_offsets[t], term_offsets[t+1])
//     stream column  num_rows x u32
//     bucket column  num_rows x u32
//     sum column     num_rows x f64
//     max column     num_rows x f64
//     count column   num_rows x u64
//
// Rows are sorted by (term via the offset index, stream, bucket). Checksums
// are FNV-1a/64: header_checksum covers header bytes [0, 56); payload_checksum
// covers every payload byte.

constexpr char kMagic[8] = {'S', 'T', 'B', 'C', 'O', 'L', 'D', '1'};
constexpr uint32_t kVersion = 1;
constexpr uint32_t kHeaderSize = 64;

struct FileHeader {
  char magic[8];
  uint32_t version;
  uint32_t header_size;
  uint32_t bucket_width;
  uint32_t stream_upper_bound;
  int32_t covered_start;
  int32_t folded_until;
  uint64_t num_terms;
  uint64_t num_rows;
  uint64_t payload_checksum;
  uint64_t header_checksum;
};
static_assert(sizeof(FileHeader) == kHeaderSize,
              "cold tier header must be exactly 64 bytes");

uint64_t Fnv1a64(const void* data, size_t len,
                 uint64_t seed = 14695981039346656037ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

bool HostIsLittleEndian() { return std::endian::native == std::endian::little; }

std::string Errno(const char* op, const std::string& path) {
  return std::string("cold tier: ") + op + " failed for '" + path +
         "': " + std::strerror(errno);
}

// Binary-searches `rows` (sorted by (stream, bucket)) for the insertion
// point of (stream, bucket).
auto LowerBound(std::vector<ColdRow>& rows, StreamId stream, uint32_t bucket) {
  return std::lower_bound(
      rows.begin(), rows.end(), std::pair(stream, bucket),
      [](const ColdRow& r, const std::pair<StreamId, uint32_t>& key) {
        return std::pair(r.stream, r.bucket) < key;
      });
}

// Element `i` of a little-endian column at `column`. memcpy, not a cast:
// columns follow one another at any byte offset in the file image.
template <typename T>
T LoadAt(const unsigned char* column, uint64_t i) {
  T value;
  std::memcpy(&value, column + i * sizeof(T), sizeof(T));
  return value;
}

template <typename T>
void StoreAt(unsigned char* column, uint64_t i, T value) {
  std::memcpy(column + i * sizeof(T), &value, sizeof(T));
}

// Reads the rest of the open file `fd` (named `path`), then closes it.
StatusOr<std::string> ReadAndClose(int fd, const std::string& path) {
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status error = Status::InvalidArgument(Errno("fstat", path));
    ::close(fd);
    return error;
  }
  std::string bytes(static_cast<size_t>(st.st_size), '\0');
  size_t filled = 0;
  while (filled < bytes.size()) {
    const ssize_t n = ::read(fd, bytes.data() + filled, bytes.size() - filled);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      Status error = Status::InvalidArgument(Errno("read", path));
      ::close(fd);
      return error;
    }
    if (n == 0) break;  // the file shrank since fstat
    filled += static_cast<size_t>(n);
  }
  ::close(fd);
  bytes.resize(filled);
  return bytes;
}

const std::vector<ColdRow> kNoRows;

}  // namespace

StatusOr<uint32_t> ColdTier::Load() {
  const std::string& path = path_;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return uint32_t{0};
    return Status::InvalidArgument(Errno("open", path));
  }
  STB_ASSIGN_OR_RETURN(std::string bytes, ReadAndClose(fd, path));
  const size_t file_len = bytes.size();
  if (file_len < kHeaderSize) {
    return Status::FailedPrecondition(
        "cold tier: '" + path + "' is " + std::to_string(file_len) +
        " bytes, shorter than the 64-byte header (truncated?)");
  }
  const auto* data = reinterpret_cast<const unsigned char*>(bytes.data());
  FileHeader h;
  std::memcpy(&h, data, sizeof(h));
  if (std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("cold tier: '" + path +
                                   "' has no STBCOLD1 magic; not a cold "
                                   "tier file (or written big-endian)");
  }
  if (h.version != kVersion) {
    return Status::InvalidArgument(
        "cold tier: '" + path + "' is format version " +
        std::to_string(h.version) + "; this build reads version " +
        std::to_string(kVersion));
  }
  if (h.header_size != kHeaderSize) {
    return Status::InvalidArgument(
        "cold tier: '" + path + "' declares header_size " +
        std::to_string(h.header_size) + ", expected 64");
  }
  if (Fnv1a64(data, offsetof(FileHeader, header_checksum)) !=
      h.header_checksum) {
    return Status::FailedPrecondition(
        "cold tier: '" + path + "' header checksum mismatch (corrupt)");
  }
  // bucket_width becomes a Timestamp and num_terms a TermId bound.
  if (h.bucket_width == 0 ||
      h.bucket_width > static_cast<uint32_t>(INT32_MAX) ||
      h.covered_start < 0 || h.folded_until < h.covered_start ||
      h.num_terms > UINT32_MAX) {
    return Status::FailedPrecondition("cold tier: '" + path +
                                      "' header fields out of range");
  }
  // Bound the counts by the file before multiplying, so the implied size
  // below cannot wrap around to the real one.
  const uint64_t file_payload = file_len - kHeaderSize;
  if (h.num_terms >= file_payload / 8 || h.num_rows > file_payload / 32) {
    return Status::FailedPrecondition(
        "cold tier: '" + path + "' header counts exceed the " +
        std::to_string(file_payload) + "-byte payload (truncated?)");
  }
  const uint64_t payload_len = uint64_t{8} * (h.num_terms + 1) +
                               h.num_rows * (4 + 4 + 8 + 8 + 8);
  if (payload_len != file_payload) {
    return Status::FailedPrecondition(
        "cold tier: '" + path + "' payload is " +
        std::to_string(file_payload) + " bytes but the header " +
        "implies " + std::to_string(payload_len) + " (truncated?)");
  }
  const unsigned char* offsets = data + kHeaderSize;
  if (Fnv1a64(offsets, payload_len) != h.payload_checksum) {
    return Status::FailedPrecondition(
        "cold tier: '" + path + "' payload checksum mismatch (corrupt)");
  }
  const unsigned char* streams = offsets + 8 * (h.num_terms + 1);
  const unsigned char* buckets = streams + 4 * h.num_rows;
  const unsigned char* sums = buckets + 4 * h.num_rows;
  const unsigned char* maxes = sums + 8 * h.num_rows;
  const unsigned char* counts = maxes + 8 * h.num_rows;
  // The offset index itself must be monotone and end at num_rows, or row
  // ranges could run past the columns.
  if (LoadAt<uint64_t>(offsets, 0) != 0 ||
      LoadAt<uint64_t>(offsets, h.num_terms) != h.num_rows) {
    return Status::FailedPrecondition(
        "cold tier: '" + path + "' term offset index does not span rows");
  }
  for (uint64_t t = 0; t < h.num_terms; ++t) {
    if (LoadAt<uint64_t>(offsets, t) > LoadAt<uint64_t>(offsets, t + 1)) {
      return Status::FailedPrecondition(
          "cold tier: '" + path + "' term offset index is not monotone");
    }
  }
  rows_.assign(h.num_terms, {});
  uint64_t streams_seen = 0;
  bool sorted = true;
  for (uint64_t t = 0; t < h.num_terms; ++t) {
    const uint64_t begin = LoadAt<uint64_t>(offsets, t);
    const uint64_t end = LoadAt<uint64_t>(offsets, t + 1);
    std::vector<ColdRow>& rows = rows_[t];
    rows.reserve(end - begin);
    for (uint64_t i = begin; i < end; ++i) {
      const ColdRow row{LoadAt<uint32_t>(streams, i),
                        LoadAt<uint32_t>(buckets, i), LoadAt<double>(sums, i),
                        LoadAt<double>(maxes, i), LoadAt<uint64_t>(counts, i)};
      if (!rows.empty() && std::pair(rows.back().stream, rows.back().bucket) >=
                               std::pair(row.stream, row.bucket)) {
        sorted = false;
      }
      streams_seen = std::max(streams_seen, uint64_t{row.stream} + 1);
      rows.push_back(row);
    }
  }
  // stream_upper_bound is 1 + the highest row stream: readers size
  // per-stream arrays by it (ReplaySeries) and index them by row streams.
  if (streams_seen != h.stream_upper_bound) {
    return Status::FailedPrecondition(
        "cold tier: '" + path + "' row streams do not match " +
        "stream_upper_bound " + std::to_string(h.stream_upper_bound));
  }
  // FoldEvicted binary-searches a term's rows for its (stream, bucket) key.
  if (!sorted) {
    return Status::FailedPrecondition(
        "cold tier: '" + path + "' rows of a term are not strictly " +
        "ascending by (stream, bucket)");
  }
  covered_start_ = h.covered_start;
  folded_until_ = h.folded_until;
  stream_ub_ = h.stream_upper_bound;
  return h.bucket_width;
}

StatusOr<ColdTier> ColdTier::Open(Timestamp bucket_width, std::string path) {
  if (bucket_width <= 0) {
    return Status::InvalidArgument(
        "cold tier: bucket width must be positive, got " +
        std::to_string(bucket_width));
  }
  ColdTier tier;
  tier.bucket_width_ = bucket_width;
  if (path.empty()) return tier;
  if (!HostIsLittleEndian()) {
    return Status::NotImplemented(
        "cold tier: the file format is little-endian; this host is not");
  }
  tier.path_ = std::move(path);
  STB_ASSIGN_OR_RETURN(const uint32_t file_width, tier.Load());
  if (file_width != 0 && static_cast<Timestamp>(file_width) != bucket_width) {
    return Status::InvalidArgument(
        "cold tier: '" + tier.path_ + "' was written with bucket width " +
        std::to_string(file_width) + " but the runtime asks for " +
        std::to_string(bucket_width) + "; aggregates cannot be re-bucketed");
  }
  return tier;
}

uint32_t ColdTier::bucket_lower_bound() const {
  return static_cast<uint32_t>(covered_start_ / bucket_width_);
}

uint32_t ColdTier::bucket_upper_bound() const {
  if (folded_until_ <= covered_start_) return bucket_lower_bound();
  return static_cast<uint32_t>((folded_until_ - 1) / bucket_width_) + 1;
}

Status ColdTier::AttachAt(Timestamp window_start) {
  if (window_start < 0) {
    return Status::InvalidArgument("cold tier: negative window start");
  }
  if (folded_until_ >= window_start) return Status::OK();  // reaches/overlaps
  const bool no_rows =
      std::all_of(rows_.begin(), rows_.end(),
                  [](const std::vector<ColdRow>& rows) { return rows.empty(); });
  if (folded_until_ == covered_start_ && no_rows) {
    // Nothing folded yet: coverage honestly begins at the live window.
    covered_start_ = window_start;
    folded_until_ = window_start;
    return Status::OK();
  }
  return Status::InvalidArgument(
      "cold tier: persisted aggregates end at timestamp " +
      std::to_string(folded_until_) + " but the live window starts at " +
      std::to_string(window_start) +
      "; the span between was never folded (history gap)");
}

size_t ColdTier::FoldEvicted(
    std::span<const std::pair<TermId, std::vector<TermPosting>>> removed,
    Timestamp cutoff, ColdFoldUndo* undo) {
  if (undo != nullptr) {
    undo->folded_until = folded_until_;
    undo->stream_upper_bound = stream_ub_;
    undo->term_upper_bound = term_upper_bound();
    undo->saved_rows.clear();
  }
  size_t folded_terms = 0;
  for (const auto& [term, postings] : removed) {
    std::vector<ColdRow>* rows = nullptr;  // set by the term's first cell
    for (const TermPosting& p : postings) {
      // Idempotence: [0, folded_until_) is already aggregated (possibly by a
      // previous process), and [cutoff, ...) is still hot.
      if (p.time < folded_until_ || p.time >= cutoff) continue;
      if (p.count == 0.0) continue;  // postings are sparse; zeros carry no mass
      if (rows == nullptr) {
        ++folded_terms;
        if (term >= rows_.size()) rows_.resize(size_t{term} + 1);
        rows = &rows_[term];
        if (undo != nullptr) undo->saved_rows.emplace_back(term, *rows);
      }
      const auto bucket = static_cast<uint32_t>(p.time / bucket_width_);
      auto it = LowerBound(*rows, p.stream, bucket);
      if (it == rows->end() || it->stream != p.stream || it->bucket != bucket) {
        it = rows->insert(it, ColdRow{p.stream, bucket, 0.0, 0.0, 0});
      }
      it->sum += p.count;
      it->max = std::max(it->max, p.count);
      it->count += 1;
      stream_ub_ = std::max(stream_ub_, p.stream + 1);
    }
  }
  if (cutoff > folded_until_) folded_until_ = cutoff;
  return folded_terms;
}

void ColdTier::RollbackFold(ColdFoldUndo&& undo) {
  // Newest first: a term named twice in one fold was saved twice, and its
  // first save holds the pre-fold rows.
  for (auto it = undo.saved_rows.rbegin(); it != undo.saved_rows.rend(); ++it) {
    rows_[it->first] = std::move(it->second);
  }
  rows_.resize(undo.term_upper_bound);  // drops terms the fold added
  folded_until_ = undo.folded_until;
  stream_ub_ = undo.stream_upper_bound;
  undo.saved_rows.clear();
}

const std::vector<ColdRow>& ColdTier::TermRows(TermId term) const {
  return term < rows_.size() ? rows_[term] : kNoRows;
}

double ColdTier::StreamSum(TermId term, StreamId stream) const {
  double total = 0.0;
  for (const ColdRow& r : TermRows(term)) {
    if (r.stream == stream) total += r.sum;
  }
  return total;
}

StatusOr<TermSeries> ColdTier::ReplaySeries(TermId term,
                                            uint32_t bucket_begin,
                                            uint32_t bucket_end) const {
  STB_CHECK(bucket_begin <= bucket_end);
  const size_t num_streams = stream_upper_bound();
  const uint64_t buckets = bucket_end - bucket_begin;
  if (buckets > static_cast<uint64_t>(INT32_MAX) ||
      (num_streams != 0 && buckets > kMaxReplayCells / num_streams)) {
    return Status::OutOfRange(
        "cold tier: replaying " + std::to_string(buckets) + " buckets of " +
        std::to_string(num_streams) + " streams exceeds " +
        std::to_string(kMaxReplayCells) + " cells");
  }
  TermSeries series(num_streams, static_cast<Timestamp>(buckets));
  for (const ColdRow& r : TermRows(term)) {
    if (r.bucket < bucket_begin || r.bucket >= bucket_end) continue;
    series.add(r.stream, static_cast<Timestamp>(r.bucket - bucket_begin),
               r.sum);
  }
  return series;
}

Status ColdTier::Publish() {
  if (path_.empty()) return Status::OK();

  const uint64_t num_terms = rows_.size();
  uint64_t num_rows = 0;
  for (const std::vector<ColdRow>& rows : rows_) num_rows += rows.size();
  std::string payload(8 * (num_terms + 1) + num_rows * 32, '\0');
  auto* offsets = reinterpret_cast<unsigned char*>(payload.data());
  unsigned char* streams = offsets + 8 * (num_terms + 1);
  unsigned char* buckets = streams + 4 * num_rows;
  unsigned char* sums = buckets + 4 * num_rows;
  unsigned char* maxes = sums + 8 * num_rows;
  unsigned char* counts = maxes + 8 * num_rows;
  uint64_t i = 0;
  StoreAt<uint64_t>(offsets, 0, 0);
  for (uint64_t t = 0; t < num_terms; ++t) {
    for (const ColdRow& r : rows_[t]) {
      StoreAt<uint32_t>(streams, i, r.stream);
      StoreAt<uint32_t>(buckets, i, r.bucket);
      StoreAt<double>(sums, i, r.sum);
      StoreAt<double>(maxes, i, r.max);
      StoreAt<uint64_t>(counts, i, r.count);
      ++i;
    }
    StoreAt<uint64_t>(offsets, t + 1, i);
  }

  FileHeader h{};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.version = kVersion;
  h.header_size = kHeaderSize;
  h.bucket_width = static_cast<uint32_t>(bucket_width_);
  h.stream_upper_bound = stream_ub_;
  h.covered_start = covered_start_;
  h.folded_until = folded_until_;
  h.num_terms = num_terms;
  h.num_rows = num_rows;
  h.payload_checksum = Fnv1a64(payload.data(), payload.size());
  h.header_checksum = Fnv1a64(&h, offsetof(FileHeader, header_checksum));

  // Write-to-temp + fsync + rename: a crash at any point leaves either the
  // previous generation (rename not reached) or the new one (rename is
  // atomic on POSIX); never a torn file at `path_`.
  const std::string tmp = path_ + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::InvalidArgument(Errno("open", tmp));
  auto write_all = [fd](const void* data, size_t len) {
    const char* p = static_cast<const char*>(data);
    while (len > 0) {
      ssize_t n = ::write(fd, p, len);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      p += n;
      len -= static_cast<size_t>(n);
    }
    return true;
  };
  if (!write_all(&h, sizeof(h)) ||
      !write_all(payload.data(), payload.size()) || ::fsync(fd) != 0) {
    Status st = Status::InvalidArgument(Errno("write", tmp));
    ::close(fd);
    ::unlink(tmp.c_str());
    return st;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path_.c_str()) != 0) {
    Status st = Status::InvalidArgument(Errno("rename", tmp));
    ::unlink(tmp.c_str());
    return st;
  }
  // Make the rename itself durable.
  const std::string dir =
      std::filesystem::path(path_).parent_path().string();
  int dfd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::OK();
}

}  // namespace stburst
