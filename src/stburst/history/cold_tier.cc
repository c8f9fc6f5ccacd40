#include "stburst/history/cold_tier.h"

#include <fcntl.h>
#include <sys/mman.h>
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

}  // namespace

/// Parsed view of one published generation: the mmap'd file plus typed
/// pointers into its columns. Immutable once validated.
struct ColdTier::Base {
  void* addr = nullptr;
  size_t len = 0;
  const uint64_t* term_offsets = nullptr;
  const uint32_t* stream = nullptr;
  const uint32_t* bucket = nullptr;
  const double* sum = nullptr;
  const double* max = nullptr;
  const uint64_t* count = nullptr;
  uint64_t num_terms = 0;
  uint64_t num_rows = 0;
  Timestamp covered_start = 0;
  Timestamp folded_until = 0;
  uint32_t stream_upper_bound = 0;

  ~Base() {
    if (addr != nullptr) ::munmap(addr, len);
  }

  // Maps and validates `path`. Returns nullptr (not an error) if the file
  // does not exist and `missing_ok` is set.
  static StatusOr<std::unique_ptr<Base>> Map(const std::string& path,
                                             bool missing_ok) {
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      if (errno == ENOENT && missing_ok) return std::unique_ptr<Base>();
      return Status::InvalidArgument(Errno("open", path));
    }
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      return Status::InvalidArgument(Errno("fstat", path));
    }
    const auto file_len = static_cast<size_t>(st.st_size);
    if (file_len < kHeaderSize) {
      ::close(fd);
      return Status::FailedPrecondition(
          "cold tier: '" + path + "' is " + std::to_string(file_len) +
          " bytes, shorter than the 64-byte header (truncated?)");
    }
    void* addr = ::mmap(nullptr, file_len, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (addr == MAP_FAILED) {
      return Status::InvalidArgument(Errno("mmap", path));
    }
    auto base = std::make_unique<Base>();
    base->addr = addr;
    base->len = file_len;

    FileHeader h;
    std::memcpy(&h, addr, sizeof(h));
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
    if (Fnv1a64(addr, offsetof(FileHeader, header_checksum)) !=
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
    const auto* payload = static_cast<const unsigned char*>(addr) + kHeaderSize;
    if (Fnv1a64(payload, payload_len) != h.payload_checksum) {
      return Status::FailedPrecondition(
          "cold tier: '" + path + "' payload checksum mismatch (corrupt)");
    }

    base->num_terms = h.num_terms;
    base->num_rows = h.num_rows;
    base->covered_start = h.covered_start;
    base->folded_until = h.folded_until;
    base->stream_upper_bound = h.stream_upper_bound;
    const unsigned char* p = payload;
    base->term_offsets = reinterpret_cast<const uint64_t*>(p);
    p += 8 * (h.num_terms + 1);
    base->stream = reinterpret_cast<const uint32_t*>(p);
    p += 4 * h.num_rows;
    base->bucket = reinterpret_cast<const uint32_t*>(p);
    p += 4 * h.num_rows;
    base->sum = reinterpret_cast<const double*>(p);
    p += 8 * h.num_rows;
    base->max = reinterpret_cast<const double*>(p);
    p += 8 * h.num_rows;
    base->count = reinterpret_cast<const uint64_t*>(p);
    // The offset index itself must be monotone and end at num_rows, or row
    // ranges could run past the mapping.
    if (base->term_offsets[0] != 0 ||
        base->term_offsets[h.num_terms] != h.num_rows) {
      return Status::FailedPrecondition(
          "cold tier: '" + path + "' term offset index does not span rows");
    }
    for (uint64_t t = 0; t < h.num_terms; ++t) {
      if (base->term_offsets[t] > base->term_offsets[t + 1]) {
        return Status::FailedPrecondition(
            "cold tier: '" + path + "' term offset index is not monotone");
      }
    }
    // stream_upper_bound is 1 + the highest row stream: readers size
    // per-stream arrays by it (ReplaySeries) and index them by row streams.
    uint64_t streams_seen = 0;
    for (uint64_t i = 0; i < h.num_rows; ++i) {
      streams_seen = std::max(streams_seen, uint64_t{base->stream[i]} + 1);
    }
    if (streams_seen != h.stream_upper_bound) {
      return Status::FailedPrecondition(
          "cold tier: '" + path + "' row streams do not match " +
          "stream_upper_bound " + std::to_string(h.stream_upper_bound));
    }
    return base;
  }

  // Row range [begin, end) of one term; empty for terms past the index.
  std::pair<uint64_t, uint64_t> Range(TermId term) const {
    if (term >= num_terms) return {0, 0};
    return {term_offsets[term], term_offsets[term + 1]};
  }
};

ColdTier::ColdTier() = default;
ColdTier::ColdTier(ColdTier&&) noexcept = default;
ColdTier& ColdTier::operator=(ColdTier&&) noexcept = default;
ColdTier::~ColdTier() = default;

StatusOr<ColdTier> ColdTier::CreateInMemory(Timestamp bucket_width) {
  if (bucket_width <= 0) {
    return Status::InvalidArgument(
        "cold tier: bucket width must be positive, got " +
        std::to_string(bucket_width));
  }
  ColdTier tier;
  tier.bucket_width_ = bucket_width;
  return tier;
}

StatusOr<ColdTier> ColdTier::OpenOrCreate(std::string path,
                                          Timestamp bucket_width) {
  if (!HostIsLittleEndian()) {
    return Status::NotImplemented(
        "cold tier: the mmap format is little-endian; this host is not");
  }
  if (bucket_width <= 0) {
    return Status::InvalidArgument(
        "cold tier: bucket width must be positive, got " +
        std::to_string(bucket_width));
  }
  if (path.empty()) {
    return Status::InvalidArgument("cold tier: empty path for mmap mode");
  }
  STB_ASSIGN_OR_RETURN(auto base, Base::Map(path, /*missing_ok=*/true));
  ColdTier tier;
  tier.path_ = std::move(path);
  tier.bucket_width_ = bucket_width;
  if (base != nullptr) {
    const FileHeader* h = static_cast<const FileHeader*>(base->addr);
    if (static_cast<Timestamp>(h->bucket_width) != bucket_width) {
      return Status::InvalidArgument(
          "cold tier: '" + tier.path_ + "' was written with bucket width " +
          std::to_string(h->bucket_width) + " but the runtime asks for " +
          std::to_string(bucket_width) +
          "; aggregates cannot be re-bucketed");
    }
    tier.covered_start_ = base->covered_start;
    tier.folded_until_ = base->folded_until;
    tier.stream_ub_ = base->stream_upper_bound;
    tier.term_ub_ = static_cast<uint32_t>(base->num_terms);
    tier.base_ = std::move(base);
  }
  return tier;
}

StatusOr<ColdTier> ColdTier::Open(std::string path) {
  if (!HostIsLittleEndian()) {
    return Status::NotImplemented(
        "cold tier: the mmap format is little-endian; this host is not");
  }
  STB_ASSIGN_OR_RETURN(auto base, Base::Map(path, /*missing_ok=*/false));
  ColdTier tier;
  tier.path_ = std::move(path);
  const FileHeader* h = static_cast<const FileHeader*>(base->addr);
  tier.bucket_width_ = static_cast<Timestamp>(h->bucket_width);
  tier.covered_start_ = base->covered_start;
  tier.folded_until_ = base->folded_until;
  tier.stream_ub_ = base->stream_upper_bound;
  tier.term_ub_ = static_cast<uint32_t>(base->num_terms);
  tier.base_ = std::move(base);
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
  if (folded_until_ == covered_start_ && delta_.empty() && base_rows() == 0) {
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

std::vector<ColdRow>* ColdTier::DeltaForTerm(TermId term) {
  auto it = delta_.find(term);
  return it == delta_.end() ? nullptr : &it->second;
}

const std::vector<ColdRow>* ColdTier::DeltaForTerm(TermId term) const {
  auto it = delta_.find(term);
  return it == delta_.end() ? nullptr : &it->second;
}

size_t ColdTier::FoldEvicted(
    std::span<const std::pair<TermId, std::vector<TermPosting>>> removed,
    Timestamp cutoff, ColdFoldUndo* undo) {
  if (undo != nullptr) {
    undo->folded_until = folded_until_;
    undo->stream_upper_bound = stream_ub_;
    undo->term_upper_bound = term_ub_;
    undo->saved_delta.clear();
  }
  size_t folded_terms = 0;
  for (const auto& [term, postings] : removed) {
    bool touched = false;
    for (const TermPosting& p : postings) {
      // Idempotence: [0, folded_until_) is already aggregated (possibly by a
      // previous generation of this process), and [cutoff, ...) is still hot.
      if (p.time < folded_until_ || p.time >= cutoff) continue;
      if (p.count == 0.0) continue;  // postings are sparse; zeros carry no mass
      if (!touched) {
        touched = true;
        ++folded_terms;
        if (undo != nullptr) {
          const std::vector<ColdRow>* existing = DeltaForTerm(term);
          undo->saved_delta.emplace_back(
              term, existing == nullptr ? std::vector<ColdRow>() : *existing);
        }
      }
      const auto bucket = static_cast<uint32_t>(p.time / bucket_width_);
      std::vector<ColdRow>& rows = delta_[term];
      auto it = LowerBound(rows, p.stream, bucket);
      if (it == rows.end() || it->stream != p.stream || it->bucket != bucket) {
        it = rows.insert(it, ColdRow{p.stream, bucket, 0.0, 0.0, 0});
      }
      it->sum += p.count;
      it->max = std::max(it->max, p.count);
      it->count += 1;
      stream_ub_ = std::max(stream_ub_, p.stream + 1);
      term_ub_ = std::max(term_ub_, term + 1);
    }
  }
  if (cutoff > folded_until_) folded_until_ = cutoff;
  return folded_terms;
}

void ColdTier::RollbackFold(ColdFoldUndo&& undo) {
  for (auto& [term, rows] : undo.saved_delta) {
    if (rows.empty()) {
      delta_.erase(term);
    } else {
      delta_[term] = std::move(rows);
    }
  }
  folded_until_ = undo.folded_until;
  stream_ub_ = undo.stream_upper_bound;
  term_ub_ = undo.term_upper_bound;
  undo.saved_delta.clear();
}

std::vector<ColdRow> ColdTier::TermRows(TermId term) const {
  std::vector<ColdRow> merged;
  const std::vector<ColdRow>* delta = DeltaForTerm(term);
  if (base_ == nullptr) {
    if (delta != nullptr) merged = *delta;
    return merged;
  }
  auto [begin, end] = base_->Range(term);
  size_t di = 0;
  const size_t dn = delta == nullptr ? 0 : delta->size();
  merged.reserve((end - begin) + dn);
  uint64_t bi = begin;
  // Two-way merge on (stream, bucket); delta rows are increments over base.
  while (bi < end || di < dn) {
    const bool take_base =
        di >= dn ||
        (bi < end &&
         std::pair(base_->stream[bi], base_->bucket[bi]) <=
             std::pair((*delta)[di].stream, (*delta)[di].bucket));
    if (take_base) {
      ColdRow row{base_->stream[bi], base_->bucket[bi], base_->sum[bi],
                  base_->max[bi], base_->count[bi]};
      if (di < dn && (*delta)[di].stream == row.stream &&
          (*delta)[di].bucket == row.bucket) {
        row.sum += (*delta)[di].sum;
        row.max = std::max(row.max, (*delta)[di].max);
        row.count += (*delta)[di].count;
        ++di;
      }
      merged.push_back(row);
      ++bi;
    } else {
      merged.push_back((*delta)[di]);
      ++di;
    }
  }
  return merged;
}

double ColdTier::StreamSum(TermId term, StreamId stream) const {
  double total = 0.0;
  if (base_ != nullptr) {
    auto [begin, end] = base_->Range(term);
    for (uint64_t i = begin; i < end; ++i) {
      if (base_->stream[i] == stream) total += base_->sum[i];
    }
  }
  if (const std::vector<ColdRow>* delta = DeltaForTerm(term)) {
    for (const ColdRow& r : *delta) {
      if (r.stream == stream) total += r.sum;
    }
  }
  return total;
}

StatusOr<TermSeries> ColdTier::ReplaySeries(TermId term,
                                            uint32_t bucket_begin,
                                            uint32_t bucket_end,
                                            size_t num_streams) const {
  STB_CHECK(bucket_begin <= bucket_end);
  STB_CHECK(num_streams >= stream_upper_bound());
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

size_t ColdTier::delta_rows() const {
  size_t n = 0;
  for (const auto& [term, rows] : delta_) n += rows.size();
  return n;
}

uint64_t ColdTier::base_rows() const {
  return base_ == nullptr ? 0 : base_->num_rows;
}

Status ColdTier::Publish() {
  if (!mmap_backed()) return Status::OK();
  const bool base_current = base_ != nullptr &&
                            base_->folded_until == folded_until_ &&
                            base_->covered_start == covered_start_;
  if (delta_.empty() && base_current) {
    return Status::OK();  // nothing new since the last generation
  }

  // Merge base + delta into columnar arrays, terms 0..term_ub_.
  const uint64_t num_terms = term_ub_;
  std::vector<uint64_t> offsets;
  offsets.reserve(num_terms + 1);
  std::vector<uint32_t> streams, buckets;
  std::vector<double> sums, maxes;
  std::vector<uint64_t> counts;
  offsets.push_back(0);
  for (TermId term = 0; term < num_terms; ++term) {
    for (const ColdRow& r : TermRows(term)) {
      streams.push_back(r.stream);
      buckets.push_back(r.bucket);
      sums.push_back(r.sum);
      maxes.push_back(r.max);
      counts.push_back(r.count);
    }
    offsets.push_back(streams.size());
  }
  const uint64_t num_rows = streams.size();

  std::string payload;
  payload.reserve(8 * (num_terms + 1) + num_rows * 32);
  auto append = [&payload](const void* data, size_t len) {
    payload.append(static_cast<const char*>(data), len);
  };
  append(offsets.data(), 8 * offsets.size());
  append(streams.data(), 4 * streams.size());
  append(buckets.data(), 4 * buckets.size());
  append(sums.data(), 8 * sums.size());
  append(maxes.data(), 8 * maxes.size());
  append(counts.data(), 8 * counts.size());

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

  // Swap in the new generation; only then drop the delta it absorbed.
  auto remapped = Base::Map(path_, /*missing_ok=*/false);
  if (!remapped.ok()) return remapped.status();
  base_ = std::move(remapped).value();
  delta_.clear();
  return Status::OK();
}

}  // namespace stburst
