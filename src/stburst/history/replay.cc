#include "stburst/history/replay.h"

#include <string>

#include "stburst/core/temporal.h"
#include "stburst/stream/frequency.h"

namespace stburst {

StatusOr<std::vector<ReplayedInterval>> ReplayRange(
    const ColdTier& tier, TermId term, uint32_t bucket_begin,
    uint32_t bucket_end, const ExpectedModelFactory& factory) {
  if (bucket_begin >= bucket_end) {
    return Status::InvalidArgument(
        "ReplayRange: empty bucket span [" + std::to_string(bucket_begin) +
        ", " + std::to_string(bucket_end) + ")");
  }
  if (bucket_begin < tier.bucket_lower_bound() ||
      bucket_end > tier.bucket_upper_bound()) {
    return Status::OutOfRange(
        "ReplayRange: span [" + std::to_string(bucket_begin) + ", " +
        std::to_string(bucket_end) + ") reaches outside the covered buckets [" +
        std::to_string(tier.bucket_lower_bound()) + ", " +
        std::to_string(tier.bucket_upper_bound()) + ")");
  }
  STB_ASSIGN_OR_RETURN(const TermSeries series,
                       tier.ReplaySeries(term, bucket_begin, bucket_end));
  const std::unique_ptr<ExpectedFrequencyModel> model = factory();
  std::vector<ReplayedInterval> out;
  for (StreamId stream = 0; stream < series.num_streams(); ++stream) {
    const std::vector<double> burstiness =
        BurstinessSeries(series.StreamRow(stream), *model);
    for (const BurstyInterval& found : ExtractBurstyIntervals(burstiness)) {
      out.push_back(ReplayedInterval{
          stream, bucket_begin + static_cast<uint32_t>(found.interval.start),
          bucket_begin + static_cast<uint32_t>(found.interval.end) + 1,
          found.burstiness});
    }
  }
  return out;
}

}  // namespace stburst
