/**
 * @file
 * Single-pass Mattson LRU-stack profiler at a fixed set of capacities.
 *
 * Section 4.1 of the paper characterizes "splittability" by comparing
 * LRU stack profiles (Mattson et al., 1970): p(x) is the fraction of
 * references whose stack depth exceeds x, i.e. the miss ratio of a
 * fully-associative LRU cache of x lines. The experiments read p at
 * the plotted sizes only, so the stack counts exactly those.
 *
 * The stack is one recency list (fully_assoc.hpp) cut into segments
 * by a marker per capacity c_0 < c_1 < ... < c_{k-1}. Marker i sits on
 * the line at depth c_i once the list first holds c_i lines; segment i
 * holds the depths (c_{i-1}, c_i], and segment k everything deeper. A
 * reference found in segment s hits in every cache of c_s lines or
 * more. Moving it to the front pushes the line under each marker above
 * segment s one segment down, and that marker steps one slot toward the
 * front; a first touch does this for every placed marker. A reference
 * costs one table lookup plus at most one step per capacity, however
 * deep its line.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "cache/fully_assoc.hpp"

namespace xmig {

/** Exact LRU stack that counts hits at each of its capacities. */
class LruStack
{
  public:
    /**
     * @param capacities the cache sizes, in lines, that missesAtSize()
     *        reads: strictly ascending, between 1 and 254 of them.
     */
    explicit LruStack(std::vector<uint64_t> capacities);

    /** Process one reference. */
    void access(uint64_t line);

    uint64_t references() const { return references_; }

    /** Number of distinct lines seen (= footprint in lines). */
    uint64_t distinctLines() const { return list_.size(); }

    /**
     * Number of references with depth > `capacity` (first touches
     * included, matching the paper's p(x) definition where they have
     * infinite depth): the misses of a fully-associative LRU cache of
     * `capacity` lines. `capacity` must be one the stack was built
     * with.
     */
    uint64_t missesAtSize(uint64_t capacity) const;

  private:
    /** Step markers [0, s): each line under one moves a segment down. */
    void stepMarkers(unsigned s);

    RecencyList list_;
    std::vector<uint64_t> capacities_;
    std::vector<uint32_t> markers_; ///< slot at depth capacities_[i]
    unsigned placed_ = 0;           ///< markers_[0, placed_) are placed
    std::vector<uint8_t> segment_;  ///< per slot
    std::vector<uint64_t> hits_;    ///< per segment
    uint64_t references_ = 0;
};

} // namespace xmig
