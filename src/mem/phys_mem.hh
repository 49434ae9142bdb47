/**
 * @file
 * Sparse byte-addressable memory images.
 *
 * atomsim keeps two images of memory:
 *
 *  - the *architectural* image, updated eagerly when workload
 *    transactions execute functionally; and
 *  - the *durable* (NVM) image, updated only by timing-model writes
 *    (data writebacks/flushes and log writes).
 *
 * Both are instances of DataImage. Crash/recovery tests diff them.
 */

#ifndef ATOMSIM_MEM_PHYS_MEM_HH
#define ATOMSIM_MEM_PHYS_MEM_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>

#include "sim/addr_table.hh"
#include "sim/types.hh"

namespace atomsim
{

/** One cache line of data. */
using Line = std::array<std::uint8_t, kLineBytes>;

/** Page size used for the sparse page index and MC interleaving. */
constexpr std::uint32_t kPageBytes = 4096;
constexpr std::uint32_t kPageShift = 12;

/**
 * A sparse, zero-initialized byte-addressable memory image.
 *
 * Memory materializes on first write in 512-byte *records*; reads of
 * untouched memory return zeroes. 512 B is the unit of everything the
 * simulator writes -- an ATOM log record (a log bucket page is eight
 * of them, mem/address_map.hh), a B+-tree node, a hash entry, a REDO
 * frame -- so a log page holding one live record costs 512 B, not the
 * whole 4 KB page.
 *
 * The page index is a flat AddrTable keyed by page number whose entry
 * holds the page's eight record pointers (null until that record is
 * first written), so an access costs one hash lookup per page it
 * touches. Records come from a slab of blocks that double up to a
 * cap, so materializing a record costs no allocation of its own, and
 * records that sit back to back in the slab are copied as one run.
 */
class DataImage
{
  public:
    DataImage() = default;

    /** Read @p size bytes at @p addr into @p out. */
    void read(Addr addr, std::size_t size, void *out) const;

    /** Write @p size bytes at @p addr from @p in. */
    void write(Addr addr, std::size_t size, const void *in);

    /** Read one 64-byte line (addr need not be aligned; it is aligned). */
    Line readLine(Addr addr) const;

    /** Write one 64-byte line at the line containing @p addr. */
    void writeLine(Addr addr, const Line &line);

    /**
     * Word-granular commit: write only the first @p words 8-byte
     * words of @p line, leaving the tail of the stored line as it
     * was. This is the torn-write primitive -- NVM guarantees only
     * 8-byte atomicity, so a line write interrupted by power failure
     * lands as a word-aligned prefix. @p words is clamped to the 8
     * words of a line; 0 is a no-op, 8 equals writeLine.
     */
    void writeLineWords(Addr addr, const Line &line, std::uint32_t words);

    /** Convenience scalar accessors. */
    std::uint64_t
    load64(Addr addr) const
    {
        std::uint64_t v;
        read(addr, sizeof(v), &v);
        return v;
    }

    void
    store64(Addr addr, std::uint64_t v)
    {
        write(addr, sizeof(v), &v);
    }

    std::uint32_t
    load32(Addr addr) const
    {
        std::uint32_t v;
        read(addr, sizeof(v), &v);
        return v;
    }

    void
    store32(Addr addr, std::uint32_t v)
    {
        write(addr, sizeof(v), &v);
    }

    /** Number of materialized pages (for tests / footprint stats). */
    std::size_t pagesAllocated() const { return _pages.size(); }

    /** Number of materialized 512-byte records. */
    std::size_t recordsAllocated() const { return _records; }

    /** Drop all contents. */
    void clear();

    /** Deep copy of the records that exist: the slab is copied whole
     * into one block (seeds the NVM image; crash tests snapshot it). */
    DataImage clone() const;

    /** Bytes in one record, the unit in which memory materializes. */
    static constexpr std::uint32_t kRecordBytes = 512;
    static constexpr std::uint32_t kRecordsPerPage = kPageBytes / kRecordBytes;

  private:
    /** A page's records, each null until first written. */
    using PageRecords = std::array<std::uint8_t *, kRecordsPerPage>;

    /** Header of a slab block; the block's records follow it. */
    struct alignas(16) Block
    {
        Block *prev;          //!< the next older block
        std::size_t records;  //!< capacity, in records
    };

    /** Frees the slab's blocks, newest first. */
    struct FreeBlocks
    {
        void operator()(Block *newest) const;
    };

    /** Storage for one record (indeterminate bytes). */
    std::uint8_t *
    newRecord()
    {
        if (_cursor == _blockEnd)
            addBlock(std::min(std::max(_records, kFirstBlockRecords),
                              kMaxBlockRecords));
        std::uint8_t *rec = _cursor;
        _cursor += kRecordBytes;
        ++_records;
        return rec;
    }

    /** Chain a new newest block of @p n records. */
    void addBlock(std::size_t n);

    /** The records of block @p b. */
    static std::uint8_t *
    recordsOf(const Block *b)
    {
        auto *block = const_cast<Block *>(b);
        return reinterpret_cast<std::uint8_t *>(block + 1);
    }

    /** End of block @p b's records in use (only the newest block is
     * partly used). */
    const std::uint8_t *
    usedEnd(const Block *b) const
    {
        return b == _newest.get() ? _cursor
                                  : recordsOf(b) + b->records * kRecordBytes;
    }

    /** Slab growth: the first block holds one page's worth of
     * records, later ones double the slab up to the cap. */
    static constexpr std::size_t kFirstBlockRecords = kRecordsPerPage;
    static constexpr std::size_t kMaxBlockRecords = 256;

    static std::size_t
    recordIndex(Addr addr)
    {
        return (addr & (kPageBytes - 1)) / kRecordBytes;
    }

    /**
     * Walk [@p addr, @p addr + @p size), which lies in one page, as
     * runs of bytes that sit back to back in the slab: fn(run, len),
     * where run is null over records never written. A page written
     * whole at once is one run, not eight copies.
     */
    template <typename F>
    static void
    forEachRun(const PageRecords *page, Addr addr, std::size_t size, F &&fn)
    {
        while (size > 0) {
            std::size_t r = recordIndex(addr);
            std::uint8_t *run = page ? (*page)[r] : nullptr;
            std::size_t len = std::min<std::size_t>(
                size, kRecordBytes - (addr & (kRecordBytes - 1)));
            if (run) {
                run += addr & (kRecordBytes - 1);
                // len < size means the range goes on into record r + 1
                // of the same page.
                while (len < size && (*page)[++r] == run + len)
                    len += std::min<std::size_t>(size - len, kRecordBytes);
            }
            fn(run, len);
            addr += len;
            size -= len;
        }
    }

    AddrTable<PageRecords> _pages;
    std::unique_ptr<Block, FreeBlocks> _newest;  //!< owns the chain
    std::uint8_t *_cursor = nullptr;    //!< next unused record
    std::uint8_t *_blockEnd = nullptr;  //!< end of the newest block
    std::size_t _records = 0;
};

} // namespace atomsim

#endif // ATOMSIM_MEM_PHYS_MEM_HH
