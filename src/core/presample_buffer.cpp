#include "core/presample_buffer.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace noswalker::core {

namespace {

/** Bytes of the per-vertex meta arrays for @p nv vertices: idx (nv+1)
 *  plus cnt, snap, direct and filled. */
std::uint64_t
meta_bytes(graph::VertexId nv)
{
    return (std::uint64_t{nv} + 1) * sizeof(std::uint32_t) +
           std::uint64_t{nv} * (sizeof(std::atomic<std::uint32_t>) +
                                sizeof(std::uint32_t) + 2);
}

} // namespace

std::optional<PreSampleBuffer::Plan>
PreSampleBuffer::plan(const graph::GraphFile &file,
                      const graph::BlockInfo &block,
                      const BuildParams &params,
                      const PreSampleBuffer *previous)
{
    const graph::VertexId nv = block.num_vertices();
    const std::uint64_t meta = meta_bytes(nv);
    if (params.max_bytes <= meta) {
        return std::nullopt;
    }
    Plan out;
    out.block_id = block.id;
    out.first_vertex = block.first_vertex;
    out.weighted = file.weighted();
    out.idx.assign(static_cast<std::size_t>(nv) + 1, 0);
    out.direct.assign(nv, 0);
    const std::uint32_t slot_bytes =
        sizeof(graph::VertexId) +
        (out.weighted ? sizeof(graph::Weight) : 0u);
    const std::uint64_t slot_budget =
        (params.max_bytes - meta) / slot_bytes;
    const bool history =
        previous != nullptr && previous->first_vertex_ == out.first_vertex;

    // Demand-driven quotas: low-degree vertices reserve their whole
    // edge list (§3.3.4); the rest get base_quota scaled by the visit
    // history (§3.3.2: quota ≈ proportional to cnt), clamped to the
    // per-vertex cap.  A byte-budget overshoot is corrected below.
    std::uint64_t direct = 0;
    std::uint64_t sampled = 0;
    for (graph::VertexId i = 0; i < nv; ++i) {
        out.idx[i] = static_cast<std::uint32_t>(direct + sampled);
        const std::uint32_t deg = file.degree(block.first_vertex + i);
        if (deg == 0) {
            continue;
        }
        if (deg <= params.low_degree_cutoff) {
            out.direct[i] = 1;
            direct += deg;
            continue;
        }
        const std::uint64_t weight =
            1 + (history
                     ? previous->cnt_[i].load(std::memory_order_relaxed)
                     : 0);
        sampled += std::clamp<std::uint64_t>(params.base_quota * weight,
                                             params.base_quota,
                                             params.max_quota);
    }
    std::uint64_t pos = direct + sampled;
    out.idx[nv] = static_cast<std::uint32_t>(pos);

    // If the quotas overshot the slot budget, scale the sampled ones
    // down into what the direct reservations leave, truncating each
    // quota so their sum stays within it (rare).  Direct reservations
    // are all-or-nothing, so a block whose direct slots alone overshoot
    // has no plan.
    if (pos > slot_budget) {
        if (direct > slot_budget) {
            return std::nullopt;
        }
        const std::uint64_t room = slot_budget - direct;
        std::uint64_t scaled = 0;
        std::uint32_t prev = 0;
        for (graph::VertexId i = 0; i < nv; ++i) {
            std::uint64_t slots = out.idx[i + 1] - prev;
            prev = out.idx[i + 1];
            if (!out.direct[i]) {
                slots = slots * room / sampled;
            }
            out.idx[i] = static_cast<std::uint32_t>(scaled);
            scaled += slots;
        }
        out.idx[nv] = static_cast<std::uint32_t>(scaled);
        pos = scaled;
    }
    out.bytes = meta + pos * slot_bytes;
    return out;
}

PreSampleBuffer::PreSampleBuffer(Plan plan, util::MemoryBudget &budget)
    : block_id_(plan.block_id), first_vertex_(plan.first_vertex),
      weighted_(plan.weighted), idx_(std::move(plan.idx)),
      direct_(std::move(plan.direct)),
      reservation_(budget, plan.bytes, "presample buffer")
{
    const std::size_t nv = direct_.size();
    // Atomics are neither copyable nor movable element-wise; construct
    // a fresh zero-initialized vector and move the buffer in.
    cnt_ = std::vector<std::atomic<std::uint32_t>>(nv);
    snap_.assign(nv, 0);
    filled_.assign(nv, 0);
    edges_.assign(idx_.back(), graph::kInvalidVertex);
    if (weighted_) {
        dweights_.assign(idx_.back(), 0.0f);
    }
}

namespace {

PreSampleBuffer::Plan
plan_or_throw(const graph::GraphFile &file, const graph::BlockInfo &block,
              const PreSampleBuffer::BuildParams &params,
              const PreSampleBuffer *previous)
{
    std::optional<PreSampleBuffer::Plan> plan =
        PreSampleBuffer::plan(file, block, params, previous);
    if (!plan) {
        throw util::BudgetExceeded("PreSampleBuffer: plan exceeds the cap");
    }
    return std::move(*plan);
}

} // namespace

PreSampleBuffer::PreSampleBuffer(const graph::GraphFile &file,
                                 const graph::BlockInfo &block,
                                 const BuildParams &params,
                                 const PreSampleBuffer *previous,
                                 util::MemoryBudget &budget)
    : PreSampleBuffer(plan_or_throw(file, block, params, previous), budget)
{
}

graph::VertexView
PreSampleBuffer::direct_view(graph::VertexId v) const
{
    const std::size_t i = index_of(v);
    NOSWALKER_CHECK(filled_[i] && direct_[i]);
    const std::uint32_t begin = idx_[i];
    const std::uint32_t n = idx_[i + 1] - begin;
    graph::VertexView view;
    view.id = v;
    view.targets = {edges_.data() + begin, n};
    if (weighted_) {
        view.weights = {dweights_.data() + begin, n};
    }
    return view;
}

} // namespace noswalker::core
