#pragma once
/// \file shard.hpp
/// Rank→sink sharding for the contention-free observability sinks
/// (obs::Tracer, obs::TraceStream). A plain `rank % nsinks` serializes
/// stride-N rank patterns — at the 7-digit rank counts exec::EventEngine
/// enables, every aggregator of a 64-group topology can land on one sink — so
/// the rank is mixed through a splitmix64-style finalizer first: any stride
/// maps onto well-spread shards.

#include <cstddef>
#include <cstdint>

namespace amrio::obs {

/// Sink index of `rank` among `nsinks` sinks. Negative ranks (the driver/
/// global track uses -1) are valid. Pure function — callers may cache it.
inline std::size_t rank_shard(int rank, std::size_t nsinks) {
  std::uint64_t h = static_cast<std::uint64_t>(static_cast<std::int64_t>(rank));
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return static_cast<std::size_t>(h % static_cast<std::uint64_t>(nsinks));
}

}  // namespace amrio::obs
