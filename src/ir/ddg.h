#ifndef DMS_IR_DDG_H
#define DMS_IR_DDG_H

/**
 * @file
 * Data dependence graph (DDG) of an innermost loop, the structure
 * every modulo scheduler in this repository operates on (paper
 * section 3: "a data dependence graph is used to represent the
 * dependencies between operations of the innermost loop").
 *
 * The graph is deliberately mutable: DMS inserts copy operations in
 * the single-use pre-pass and splices chains of move operations in
 * (and back out, on backtracking) while scheduling. Removed
 * operations and edges become tombstones so identifiers stay stable
 * across mutation.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ir/opcode.h"
#include "support/diag.h"
#include "support/types.h"

namespace dms {

/** Kind of a dependence edge. */
enum class DepKind : std::uint8_t {
    Flow,    ///< true register dependence; carries a value
    Anti,    ///< write-after-read ordering
    Output,  ///< write-after-write ordering
    Memory,  ///< memory ordering (store/load aliasing)
};

const char *depKindName(DepKind kind);

/** Why an operation exists. */
enum class OpOrigin : std::uint8_t {
    Original,  ///< part of the source loop body
    CopyOp,    ///< inserted by the single-use lifetime pre-pass
    MoveOp,    ///< inserted by a DMS chain (strategy 2)
};

/**
 * Adjacency list of one operation: edge ids in insertion order. The
 * first kInline ids live inside the list itself; only a list that
 * grows past that spills to the heap. After the copy pre-pass every
 * op has at most two in- and two out-edges (and nearly every op has
 * at most four out-edges before it), so building, copying,
 * unrolling and resetting a graph allocate nothing per operation.
 *
 * Keeps the part of the std::vector API the graph code uses; erase()
 * preserves the order of the remaining ids, like vector::erase.
 */
class EdgeList
{
  public:
    static constexpr std::uint32_t kInline = 4;

    EdgeList() = default;
    EdgeList(const EdgeList &other) { *this = other; }
    EdgeList(EdgeList &&other) noexcept { *this = std::move(other); }
    EdgeList &operator=(const EdgeList &other);
    EdgeList &operator=(EdgeList &&other) noexcept;
    ~EdgeList() { release(); }

    const EdgeId *begin() const { return data(); }
    const EdgeId *end() const { return data() + size_; }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    EdgeId
    operator[](std::size_t i) const
    {
        DMS_ASSERT(i < size_, "edge list index %zu of %u", i, size_);
        return data()[i];
    }

    void
    push_back(EdgeId e)
    {
        if (size_ == cap_)
            grow(2 * cap_);
        data()[size_++] = e;
    }

    void
    reserve(std::size_t n)
    {
        if (n > cap_)
            grow(n);
    }

    /** Drop every id; a spilled buffer is kept for reuse. */
    void clear() { size_ = 0; }

    /** Remove the id at @p pos, keeping the others in order. */
    void erase(const EdgeId *pos);

  private:
    bool spilled() const { return cap_ > kInline; }
    EdgeId *data() { return spilled() ? heap_ : inline_; }
    const EdgeId *data() const { return spilled() ? heap_ : inline_; }

    /** Move to a heap buffer of @p n ids, keeping the contents. */
    void grow(std::size_t n);

    /** Free a spilled buffer and go back to inline storage. */
    void release();

    std::uint32_t size_ = 0;
    std::uint32_t cap_ = kInline;
    union
    {
        EdgeId inline_[kInline];
        EdgeId *heap_;
    };
};

/**
 * One loop-body operation. Plain data; the graph owns the adjacency.
 */
struct Operation
{
    Opcode opc = Opcode::Add;
    OpOrigin origin = OpOrigin::Original;
    bool dead = false;

    /**
     * Identity of the op (or, for copies/moves, of the operation
     * that originally produced the forwarded value) in the loop this
     * DDG was derived from. Used by the simulator to compare stored
     * values against the reference interpreter across unrolling and
     * the copy pre-pass.
     */
    OpId origId = kInvalidOp;

    /** Which original iteration this op handles (unrolled bodies). */
    int iterOffset = 0;

    /** Memory stream id for Load/Store; -1 otherwise. */
    int memStream = -1;

    /** Constant index offset into the stream (models a[i+k]). */
    int memOffset = 0;

    /** Literal for Const operations. */
    std::int64_t literal = 0;

    /**
     * In-edge ids in insertion order. removeEdge() unlinks an edge,
     * so these are live edges, replaced ones included (check
     * Ddg::edgeActive).
     */
    EdgeList ins;

    /** Out-edge ids, same rules as @c ins. */
    EdgeList outs;
};

/** One dependence edge. */
struct Edge
{
    OpId src = kInvalidOp;
    OpId dst = kInvalidOp;
    DepKind kind = DepKind::Flow;

    /** Iteration distance (>= 0; loop-carried if > 0). */
    int distance = 0;

    /**
     * Dependence latency: the schedule must satisfy
     * time(dst) >= time(src) + latency - II * distance.
     */
    int latency = 0;

    /**
     * Operand slot of @c dst this edge feeds (0 or 1), or -1 for
     * edges that do not carry a value (Anti/Output/Memory). Chain
     * splicing preserves the slot so execution semantics survive.
     */
    int operandIndex = -1;

    bool dead = false;

    /**
     * True while a DMS chain of moves stands in for this edge. A
     * replaced edge imposes no constraints itself (the moves do) but
     * is remembered so backtracking can restore it.
     */
    bool replaced = false;
};

/**
 * Observer of edge-activation changes. The incremental affinity
 * bookkeeping of DMS needs to know when an edge starts or stops
 * constraining the schedule; all four mutation paths (addEdge,
 * removeEdge, markReplaced, unmarkReplaced) report through this so
 * the observer cannot fall out of sync with chain splicing.
 * resetTo() rebuilds the graph wholesale and fires nothing — an
 * attached observer must rebuild its state afterwards.
 */
class DdgListener
{
  public:
    /** @p e just became active (constrains the schedule). */
    virtual void onEdgeActivated(EdgeId e) = 0;

    /** @p e (still readable) just stopped being active. */
    virtual void onEdgeDeactivated(EdgeId e) = 0;

  protected:
    ~DdgListener() = default;
};

/**
 * Mutable data dependence graph of one innermost loop iteration.
 */
class Ddg
{
  public:
    Ddg() = default;

    /** @name Construction */
    /// @{

    /** Add an operation; returns its id. */
    OpId addOp(Opcode opc, OpOrigin origin = OpOrigin::Original);

    /**
     * Make this graph a copy of @p original while reusing the
     * existing allocations (the op and edge arrays; adjacency lists
     * are inline up to EdgeList::kInline ids), so one scratch graph
     * serves every (II, restart) attempt and every compile of a DMS
     * arena without churning the allocator.
     */
    void resetTo(const Ddg &original);

    /**
     * Empty the graph (unroll factor back to 1) but keep its
     * buffers: the rebuild-in-place counterpart of resetTo() for
     * passes that construct a new body (unrollDdg).
     */
    void clear();

    /** Reserve room for @p ops operations and @p edges edges. */
    void reserve(int ops, int edges);

    /**
     * Add a dependence edge.
     *
     * @param operand_index operand slot for Flow edges; -1 otherwise.
     */
    EdgeId addEdge(OpId src, OpId dst, DepKind kind, int distance,
                   int latency, int operand_index = -1);

    /// @}
    /** @name Mutation (pre-pass and chain splicing) */
    /// @{

    /** Remove an edge (tombstoned; unlinked from adjacency). */
    void removeEdge(EdgeId e);

    /** Remove an op; it must have no live edges left. */
    void removeOp(OpId id);

    /** Hide an edge behind a chain of moves. */
    void markReplaced(EdgeId e);

    /** Restore a hidden edge when its chain dissolves. */
    void unmarkReplaced(EdgeId e);

    /// @}
    /** @name Access */
    /// @{

    /** Total ids ever allocated, including tombstones. */
    int numOps() const { return static_cast<int>(ops_.size()); }
    int numEdges() const { return static_cast<int>(edges_.size()); }

    /** Live (non-tombstoned) operation count. */
    int liveOpCount() const { return live_ops_; }

    /**
     * Op/edge accessors are defined inline (below the class): the
     * scheduler inner loop hits them millions of times per run and
     * the call overhead dominated the hot-path profile when they
     * lived in ddg.cc. The bounds asserts survive NDEBUG.
     */
    const Operation &op(OpId id) const;
    Operation &op(OpId id);
    const Edge &edge(EdgeId e) const;
    Edge &edge(EdgeId e);

    bool opLive(OpId id) const { return !op(id).dead; }
    bool edgeLive(EdgeId e) const { return !edge(e).dead; }

    /**
     * True if the edge currently constrains the schedule: live and
     * not replaced by a chain.
     */
    bool edgeActive(EdgeId e) const;

    /** All live op ids, ascending. */
    std::vector<OpId> liveOps() const;

    /** Live op count per functional-unit class. */
    std::vector<int> opCountByClass() const;

    /** Count of live useful (non copy/move) operations. */
    int usefulOpCount() const;

    /** Live flow out-degree (number of value uses). */
    int flowFanout(OpId id) const;

    /**
     * Active flow in-edges feeding operand slots, any order.
     * Replaced edges are excluded: their value flows through the
     * chain's final edge instead.
     */
    std::vector<EdgeId> flowInputs(OpId id) const;

    /// @}
    /** @name Loop metadata */
    /// @{

    /** Unroll factor this body was produced with (1 = not unrolled). */
    int unrollFactor() const { return unroll_factor_; }
    void setUnrollFactor(int f) { unroll_factor_ = f; }

    /// @}

    /** Human-readable label such as "op7:mul". */
    std::string opLabel(OpId id) const;

    /**
     * Attach (or clear, with nullptr) the mutation observer. Not
     * owned; the caller keeps it alive while attached. Copying a
     * Ddg copies the pointer, so clear it before handing a graph to
     * another owner.
     */
    void setListener(DdgListener *listener) { listener_ = listener; }
    DdgListener *listener() const { return listener_; }

  private:
    std::vector<Operation> ops_;
    std::vector<Edge> edges_;
    int live_ops_ = 0;
    int unroll_factor_ = 1;
    DdgListener *listener_ = nullptr;
};

inline const Operation &
Ddg::op(OpId id) const
{
    DMS_ASSERT(id >= 0 && id < numOps(), "bad op id %d", id);
    return ops_[static_cast<size_t>(id)];
}

inline Operation &
Ddg::op(OpId id)
{
    DMS_ASSERT(id >= 0 && id < numOps(), "bad op id %d", id);
    return ops_[static_cast<size_t>(id)];
}

inline const Edge &
Ddg::edge(EdgeId e) const
{
    DMS_ASSERT(e >= 0 && e < numEdges(), "bad edge id %d", e);
    return edges_[static_cast<size_t>(e)];
}

inline Edge &
Ddg::edge(EdgeId e)
{
    DMS_ASSERT(e >= 0 && e < numEdges(), "bad edge id %d", e);
    return edges_[static_cast<size_t>(e)];
}

inline bool
Ddg::edgeActive(EdgeId e) const
{
    const Edge &ed = edge(e);
    return !ed.dead && !ed.replaced;
}

} // namespace dms

#endif // DMS_IR_DDG_H
