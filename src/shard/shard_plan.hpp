/**
 * @file
 * Static assignment of the CSR block range to shards.
 *
 * Shards own contiguous block ranges balanced by edge bytes (the same
 * quantity BlockPartition balances blocks by), so each shard's private
 * device serves a near-equal share of the graph.  The plan is a pure
 * function of (partition, num_shards): routing a walker to its owner
 * shard is deterministic and identical on every host.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "graph/partition.hpp"

namespace noswalker::shard {

/** One shard's contiguous block range. */
struct ShardRange {
    std::uint32_t first_block = 0;
    std::uint32_t end_block = 0; ///< one past the last block
    /** Edge bytes owned by the shard. */
    std::uint64_t bytes = 0;

    std::uint32_t
    num_blocks() const
    {
        return end_block - first_block;
    }

    bool
    contains(std::uint32_t block) const
    {
        return block >= first_block && block < end_block;
    }
};

/** Byte-balanced contiguous split of a BlockPartition across shards. */
class ShardPlan {
  public:
    /**
     * Split @p partition into @p num_shards contiguous ranges of
     * near-equal edge bytes.  Clamped: never more shards than blocks,
     * never fewer than one; every shard owns at least one block.
     */
    ShardPlan(const graph::BlockPartition &partition, unsigned num_shards);

    /** Shards actually planned (after clamping to the block count). */
    unsigned
    num_shards() const
    {
        return static_cast<unsigned>(ranges_.size());
    }

    /** Range of shard @p s. */
    const ShardRange &shard(unsigned s) const { return ranges_[s]; }

    /** Owning shard of @p block (O(log num_shards)). */
    unsigned shard_of_block(std::uint32_t block) const;

    /**
     * Locality-aware seed placement: the shard owning the block that
     * holds @p vertex.  A walker seeded here starts on the shard that
     * already has its first edge data, so round 1 begins with zero
     * migrations.  Pure function of (partition, plan, vertex) —
     * identical on every host and at every thread count.
     */
    unsigned assign_walker(const graph::BlockPartition &partition,
                           graph::VertexId vertex) const;

    /**
     * Documented fallback when no partition is at hand (e.g. synthetic
     * load generators): round-robin by walker index.  Spreads load
     * evenly but guarantees nothing about locality — most walkers
     * migrate on their first step.
     */
    unsigned
    assign_walker_round_robin(std::uint64_t walker_index) const
    {
        return static_cast<unsigned>(walker_index % ranges_.size());
    }

  private:
    std::vector<ShardRange> ranges_;
    std::vector<std::uint32_t> first_blocks_; ///< per shard, for lookup
};

/*
 * Who pays for the CSR index (DESIGN.md §11): every shard reads a view
 * of one shared index, so a sharded engine charges it once and each
 * shard's budget covers only what the shard holds privately.  These
 * two functions are the whole rule; the engine and the service's
 * admission floor both apply it.
 */

/**
 * Private budget slice of each of @p n shards under @p budget bytes
 * (0 = unlimited, which stays 0): what is left after the index, split
 * evenly.  Never 0 for a finite budget, so a budget the index alone
 * fills leaves the shards a 1-byte slice instead of an unlimited one.
 */
std::uint64_t shard_slice(std::uint64_t budget, std::uint64_t index_bytes,
                          unsigned n);

/**
 * Smallest budget @p n shards need when one engine needs
 * @p engine_floor bytes, @p index_bytes of them the index: the index
 * once, the rest once per shard.
 */
std::uint64_t sharded_floor(std::uint64_t engine_floor,
                            std::uint64_t index_bytes, unsigned n);

} // namespace noswalker::shard
