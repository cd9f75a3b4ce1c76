#include "shard/shard_plan.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace noswalker::shard {

ShardPlan::ShardPlan(const graph::BlockPartition &partition,
                     unsigned num_shards)
{
    const std::uint32_t num_blocks = partition.num_blocks();
    if (num_blocks == 0) {
        throw util::ConfigError("ShardPlan: empty partition");
    }
    const unsigned n = std::max(
        1u, std::min<unsigned>(num_shards, num_blocks));

    std::uint64_t total = 0;
    for (std::uint32_t b = 0; b < num_blocks; ++b) {
        total += partition.block(b).byte_size;
    }

    ranges_.reserve(n);
    first_blocks_.reserve(n);
    std::uint32_t begin = 0;
    std::uint64_t cumulative = 0;
    for (unsigned s = 0; s < n; ++s) {
        const std::uint64_t target = (total / n) * (s + 1) +
                                     (total % n) * (s + 1) / n;
        std::uint32_t end = begin;
        std::uint64_t bytes = 0;
        // Take at least one block, then blocks up to the cumulative
        // byte target — but always leave one block for every shard
        // still to come.
        do {
            bytes += partition.block(end).byte_size;
            cumulative += partition.block(end).byte_size;
            ++end;
        } while (end < num_blocks &&
                 num_blocks - end > n - s - 1 && cumulative < target);
        if (s + 1 == n) {
            // Rounding safety: the last shard absorbs the tail.
            for (; end < num_blocks; ++end) {
                bytes += partition.block(end).byte_size;
            }
        }
        ranges_.push_back({begin, end, bytes});
        first_blocks_.push_back(begin);
        begin = end;
    }
}

unsigned
ShardPlan::shard_of_block(std::uint32_t block) const
{
    const auto it = std::upper_bound(first_blocks_.begin(),
                                     first_blocks_.end(), block);
    return static_cast<unsigned>(it - first_blocks_.begin()) - 1;
}

unsigned
ShardPlan::assign_walker(const graph::BlockPartition &partition,
                         graph::VertexId vertex) const
{
    return shard_of_block(partition.block_of(vertex));
}

std::uint64_t
shard_slice(std::uint64_t budget, std::uint64_t index_bytes, unsigned n)
{
    if (budget == 0) {
        return 0;
    }
    const std::uint64_t rest = budget - std::min(budget, index_bytes);
    return std::max<std::uint64_t>(1, rest / std::max(1u, n));
}

std::uint64_t
sharded_floor(std::uint64_t engine_floor, std::uint64_t index_bytes,
              unsigned n)
{
    return index_bytes +
           (engine_floor - std::min(engine_floor, index_bytes)) *
               std::max(1u, n);
}

} // namespace noswalker::shard
