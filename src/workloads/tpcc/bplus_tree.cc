#include "workloads/tpcc/bplus_tree.hh"

#include <array>

#include "sim/logging.hh"

namespace atomsim
{

namespace
{

// Node layout (512 B): isLeaf @0 (u32), count @4 (u32).
// Leaf: keys[28] @8, values[28] @232, next @456.
// Internal: keys[27] @8, children[28] @224.
constexpr Addr kIsLeafOff = 0;
constexpr Addr kCountOff = 4;
constexpr Addr kLeafKeysOff = 8;
constexpr Addr kLeafValsOff = 232;
constexpr Addr kLeafNextOff = 456;
constexpr Addr kIntKeysOff = 8;
constexpr Addr kIntChildrenOff = 224;

} // namespace

BPlusTree::BPlusTree(Addr anchor, PersistentHeap &heap,
                     std::uint32_t core)
    : _anchor(anchor), _heap(heap), _core(core)
{
}

bool
BPlusTree::isLeaf(Accessor &mem, Addr node)
{
    return mem.load32(node + kIsLeafOff) != 0;
}

std::uint32_t
BPlusTree::countOf(Accessor &mem, Addr node)
{
    return mem.load32(node + kCountOff);
}

void
BPlusTree::setCount(Accessor &mem, Addr node, std::uint32_t n)
{
    mem.store32(node + kCountOff, n);
}

Addr
BPlusTree::leafKeySlot(Addr node, std::uint32_t i)
{
    return node + kLeafKeysOff + Addr(i) * 8;
}

Addr
BPlusTree::leafValSlot(Addr node, std::uint32_t i)
{
    return node + kLeafValsOff + Addr(i) * 8;
}

Addr
BPlusTree::leafNextSlot(Addr node)
{
    return node + kLeafNextOff;
}

Addr
BPlusTree::intKeySlot(Addr node, std::uint32_t i)
{
    return node + kIntKeysOff + Addr(i) * 8;
}

Addr
BPlusTree::intChildSlot(Addr node, std::uint32_t i)
{
    return node + kIntChildrenOff + Addr(i) * 8;
}

Addr
BPlusTree::allocNode(Accessor &mem, bool leaf)
{
    const Addr node = _heap.alloc(_core, kNodeBytes, kLineBytes);
    mem.store32(node + kIsLeafOff, leaf ? 1 : 0);
    mem.store32(node + kCountOff, 0);
    if (leaf)
        mem.store64(leafNextSlot(node), 0);
    return node;
}

Addr
BPlusTree::create(Accessor &mem, PersistentHeap &heap,
                  std::uint32_t core)
{
    const Addr anchor = heap.alloc(core, 8, kLineBytes);
    BPlusTree tree(anchor, heap, core);
    const Addr root = tree.allocNode(mem, true);
    mem.store64(anchor, root);
    return anchor;
}

Addr
BPlusTree::descend(Accessor &mem, std::uint64_t key, Path *path)
{
    Addr node = rootOf(mem);
    while (!isLeaf(mem, node)) {
        const std::uint32_t n = countOf(mem, node);
        std::uint32_t i = 0;
        while (i < n && key >= mem.load64(intKeySlot(node, i))) {
            mem.compute(1);
            ++i;
        }
        if (path)
            path->emplace_back(node, i);
        node = mem.load64(intChildSlot(node, i));
    }
    return node;
}

std::optional<std::uint64_t>
BPlusTree::search(Accessor &mem, std::uint64_t key)
{
    const Addr leaf = descend(mem, key, nullptr);
    const std::uint32_t n = countOf(mem, leaf);
    for (std::uint32_t i = 0; i < n; ++i) {
        if (mem.load64(leafKeySlot(leaf, i)) == key)
            return mem.load64(leafValSlot(leaf, i));
    }
    return std::nullopt;
}

void
BPlusTree::insertIntoParent(Accessor &mem, Path &path,
                            std::uint64_t sep_key, Addr right)
{
    if (path.empty()) {
        // Split the root: new root with one key, two children.
        const Addr old_root = rootOf(mem);
        const Addr new_root = allocNode(mem, false);
        mem.store64(intKeySlot(new_root, 0), sep_key);
        mem.store64(intChildSlot(new_root, 0), old_root);
        mem.store64(intChildSlot(new_root, 1), right);
        setCount(mem, new_root, 1);
        mem.store64(_anchor, new_root);
        return;
    }

    auto [node, at] = path.back();
    path.pop_back();
    const std::uint32_t n = countOf(mem, node);

    if (n < kIntKeys) {
        // Shift keys/children right of the insertion point.
        for (std::uint32_t i = n; i > at; --i) {
            mem.store64(intKeySlot(node, i),
                        mem.load64(intKeySlot(node, i - 1)));
            mem.store64(intChildSlot(node, i + 1),
                        mem.load64(intChildSlot(node, i)));
        }
        mem.store64(intKeySlot(node, at), sep_key);
        mem.store64(intChildSlot(node, at + 1), right);
        setCount(mem, node, n + 1);
        return;
    }

    // Split the internal node (it is full: n == kIntKeys). Materialize
    // the post-insert sequence on the stack, then divide it around the
    // median.
    std::array<std::uint64_t, kIntKeys + 1> keys;
    std::array<Addr, kIntKeys + 2> children;
    children[0] = mem.load64(intChildSlot(node, 0));
    for (std::uint32_t i = 0, j = 0; i <= n; ++i) {
        if (i == at) {
            keys[i] = sep_key;
            children[i + 1] = right;
        } else {
            keys[i] = mem.load64(intKeySlot(node, j));
            children[i + 1] = mem.load64(intChildSlot(node, j + 1));
            ++j;
        }
    }

    const std::uint32_t mid = std::uint32_t(keys.size()) / 2;
    const std::uint64_t up_key = keys[mid];

    const Addr sibling = allocNode(mem, false);
    // Left node keeps keys [0, mid); right sibling gets (mid, end).
    setCount(mem, node, mid);
    for (std::uint32_t i = 0; i < mid; ++i) {
        mem.store64(intKeySlot(node, i), keys[i]);
        mem.store64(intChildSlot(node, i), children[i]);
    }
    mem.store64(intChildSlot(node, mid), children[mid]);

    const std::uint32_t rcount =
        std::uint32_t(keys.size()) - mid - 1;
    setCount(mem, sibling, rcount);
    for (std::uint32_t i = 0; i < rcount; ++i) {
        mem.store64(intKeySlot(sibling, i), keys[mid + 1 + i]);
        mem.store64(intChildSlot(sibling, i), children[mid + 1 + i]);
    }
    mem.store64(intChildSlot(sibling, rcount), children[keys.size()]);

    insertIntoParent(mem, path, up_key, sibling);
}

void
BPlusTree::insert(Accessor &mem, std::uint64_t key, std::uint64_t value)
{
    Path &path = _path;
    path.clear();
    const Addr leaf = descend(mem, key, &path);
    const std::uint32_t n = countOf(mem, leaf);

    // Overwrite on duplicate key.
    std::uint32_t at = 0;
    while (at < n && mem.load64(leafKeySlot(leaf, at)) < key)
        ++at;
    if (at < n && mem.load64(leafKeySlot(leaf, at)) == key) {
        mem.store64(leafValSlot(leaf, at), value);
        return;
    }

    if (n < kLeafKeys) {
        for (std::uint32_t i = n; i > at; --i) {
            mem.store64(leafKeySlot(leaf, i),
                        mem.load64(leafKeySlot(leaf, i - 1)));
            mem.store64(leafValSlot(leaf, i),
                        mem.load64(leafValSlot(leaf, i - 1)));
        }
        mem.store64(leafKeySlot(leaf, at), key);
        mem.store64(leafValSlot(leaf, at), value);
        setCount(mem, leaf, n + 1);
        return;
    }

    // Split the (full: n == kLeafKeys) leaf around the median of the
    // post-insert sequence, materialized on the stack.
    std::array<std::uint64_t, kLeafKeys + 1> keys;
    std::array<std::uint64_t, kLeafKeys + 1> vals;
    for (std::uint32_t i = 0, j = 0; i <= n; ++i) {
        if (i == at) {
            keys[i] = key;
            vals[i] = value;
        } else {
            keys[i] = mem.load64(leafKeySlot(leaf, j));
            vals[i] = mem.load64(leafValSlot(leaf, j));
            ++j;
        }
    }

    const std::uint32_t mid = std::uint32_t(keys.size()) / 2;
    const Addr sibling = allocNode(mem, true);

    setCount(mem, leaf, mid);
    for (std::uint32_t i = 0; i < mid; ++i) {
        mem.store64(leafKeySlot(leaf, i), keys[i]);
        mem.store64(leafValSlot(leaf, i), vals[i]);
    }
    const std::uint32_t rcount = std::uint32_t(keys.size()) - mid;
    setCount(mem, sibling, rcount);
    for (std::uint32_t i = 0; i < rcount; ++i) {
        mem.store64(leafKeySlot(sibling, i), keys[mid + i]);
        mem.store64(leafValSlot(sibling, i), vals[mid + i]);
    }
    mem.store64(leafNextSlot(sibling),
                mem.load64(leafNextSlot(leaf)));
    mem.store64(leafNextSlot(leaf), sibling);

    insertIntoParent(mem, path, keys[mid], sibling);
}

bool
BPlusTree::remove(Accessor &mem, std::uint64_t key)
{
    const Addr leaf = descend(mem, key, nullptr);
    const std::uint32_t n = countOf(mem, leaf);
    for (std::uint32_t i = 0; i < n; ++i) {
        if (mem.load64(leafKeySlot(leaf, i)) == key) {
            for (std::uint32_t j = i; j + 1 < n; ++j) {
                mem.store64(leafKeySlot(leaf, j),
                            mem.load64(leafKeySlot(leaf, j + 1)));
                mem.store64(leafValSlot(leaf, j),
                            mem.load64(leafValSlot(leaf, j + 1)));
            }
            setCount(mem, leaf, n - 1);
            return true;
        }
    }
    return false;
}

std::uint64_t
BPlusTree::count(Accessor &mem)
{
    // Leftmost leaf, then follow the chain.
    Addr node = rootOf(mem);
    while (!isLeaf(mem, node))
        node = mem.load64(intChildSlot(node, 0));
    std::uint64_t total = 0;
    while (node != 0) {
        total += countOf(mem, node);
        node = mem.load64(leafNextSlot(node));
    }
    return total;
}

std::string
BPlusTree::checkSubtree(Accessor &mem, Addr node, std::uint64_t lo,
                        std::uint64_t hi, std::uint32_t depth,
                        std::uint32_t &leaf_depth)
{
    const std::uint32_t n = countOf(mem, node);
    if (isLeaf(mem, node)) {
        if (leaf_depth == ~0u)
            leaf_depth = depth;
        else if (leaf_depth != depth) {
            return faultf("leaves at different depths: node=0x%llx "
                          "depth=%u expected=%u",
                          (unsigned long long)node, depth, leaf_depth);
        }
        std::uint64_t prev = lo;
        bool first = true;
        for (std::uint32_t i = 0; i < n; ++i) {
            const std::uint64_t k = mem.load64(leafKeySlot(node, i));
            if (k < lo || k >= hi) {
                return faultf("leaf key out of separator range: "
                              "node=0x%llx slot=%u key=0x%llx "
                              "range=[0x%llx,0x%llx)",
                              (unsigned long long)node, i,
                              (unsigned long long)k,
                              (unsigned long long)lo,
                              (unsigned long long)hi);
            }
            if (!first && k <= prev) {
                return faultf("leaf keys not strictly increasing: "
                              "node=0x%llx slot=%u key=0x%llx "
                              "prev=0x%llx",
                              (unsigned long long)node, i,
                              (unsigned long long)k,
                              (unsigned long long)prev);
            }
            prev = k;
            first = false;
        }
        return "";
    }
    if (n == 0 || n > kIntKeys) {
        return faultf("internal node count out of range: node=0x%llx "
                      "count=%u", (unsigned long long)node, n);
    }
    std::uint64_t prev = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint64_t k = mem.load64(intKeySlot(node, i));
        if (k < lo || k > hi) {
            return faultf("separator out of range: node=0x%llx slot=%u "
                          "key=0x%llx range=[0x%llx,0x%llx]",
                          (unsigned long long)node, i,
                          (unsigned long long)k, (unsigned long long)lo,
                          (unsigned long long)hi);
        }
        if (i > 0 && k <= prev) {
            return faultf("separators not strictly increasing: "
                          "node=0x%llx slot=%u key=0x%llx prev=0x%llx",
                          (unsigned long long)node, i,
                          (unsigned long long)k,
                          (unsigned long long)prev);
        }
        prev = k;
    }
    for (std::uint32_t i = 0; i <= n; ++i) {
        const std::uint64_t child_lo =
            (i == 0) ? lo : mem.load64(intKeySlot(node, i - 1));
        const std::uint64_t child_hi =
            (i == n) ? hi : mem.load64(intKeySlot(node, i));
        const Addr child = mem.load64(intChildSlot(node, i));
        if (child == 0) {
            return faultf("null child pointer: node=0x%llx slot=%u",
                          (unsigned long long)node, i);
        }
        const std::string err = checkSubtree(mem, child, child_lo,
                                             child_hi, depth + 1,
                                             leaf_depth);
        if (!err.empty())
            return err;
    }
    return "";
}

std::string
BPlusTree::checkStructure(Accessor &mem)
{
    std::uint32_t leaf_depth = ~0u;
    std::string err = checkSubtree(mem, rootOf(mem), 0,
                                   ~std::uint64_t(0), 0, leaf_depth);
    if (!err.empty())
        return err;

    // Leaf chain must be globally sorted.
    Addr node = rootOf(mem);
    while (!isLeaf(mem, node))
        node = mem.load64(intChildSlot(node, 0));
    std::uint64_t prev = 0;
    bool first = true;
    while (node != 0) {
        const std::uint32_t n = countOf(mem, node);
        for (std::uint32_t i = 0; i < n; ++i) {
            const std::uint64_t k = mem.load64(leafKeySlot(node, i));
            if (!first && k <= prev) {
                return faultf("leaf chain not sorted: node=0x%llx "
                              "slot=%u key=0x%llx prev=0x%llx",
                              (unsigned long long)node, i,
                              (unsigned long long)k,
                              (unsigned long long)prev);
            }
            prev = k;
            first = false;
        }
        node = mem.load64(leafNextSlot(node));
    }
    return "";
}

} // namespace atomsim
