#include "mem/phys_mem.hh"

#include <iterator>
#include <new>
#include <vector>

#include "sim/logging.hh"

namespace atomsim
{

void
DataImage::FreeBlocks::operator()(Block *newest) const
{
    while (newest) {
        Block *prev = newest->prev;
        ::operator delete(newest);
        newest = prev;
    }
}

void
DataImage::addBlock(std::size_t n)
{
    // Records are left uninitialized: write() zeroes a record it only
    // partly covers.
    void *mem = ::operator new(sizeof(Block) + n * kRecordBytes);
    Block *block = new (mem) Block{_newest.release(), n};
    _newest.reset(block);
    _cursor = recordsOf(block);
    _blockEnd = _cursor + n * kRecordBytes;
}

void
DataImage::read(Addr addr, std::size_t size, void *out) const
{
    auto *dst = static_cast<std::uint8_t *>(out);
    while (size > 0) {
        const Addr page_num = addr >> kPageShift;
        const std::size_t chunk =
            std::min(size, kPageBytes - std::size_t(addr & (kPageBytes - 1)));
        const PageRecords *page = _pages.find(page_num);
        forEachRun(page, addr, chunk,
                   [&](const std::uint8_t *run, std::size_t len) {
                       if (run)
                           std::memcpy(dst, run, len);
                       else
                           std::memset(dst, 0, len);
                       dst += len;
                   });
        addr += chunk;
        size -= chunk;
    }
}

void
DataImage::write(Addr addr, std::size_t size, const void *in)
{
    auto *src = static_cast<const std::uint8_t *>(in);
    while (size > 0) {
        const Addr page_num = addr >> kPageShift;
        const std::size_t chunk =
            std::min(size, kPageBytes - std::size_t(addr & (kPageBytes - 1)));
        // Valid across both loops: they insert nothing in the table.
        PageRecords &page = _pages[page_num];
        // Materialize the missing records first, so records allocated
        // together are then written as one run.
        for (Addr rec_addr = addr & ~Addr(kRecordBytes - 1);
             rec_addr < addr + chunk; rec_addr += kRecordBytes) {
            std::uint8_t *&rec = page[recordIndex(rec_addr)];
            if (rec)
                continue;
            rec = newRecord();
            if (rec_addr < addr || rec_addr + kRecordBytes > addr + chunk)
                std::memset(rec, 0, kRecordBytes);
        }
        forEachRun(&page, addr, chunk,
                   [&](std::uint8_t *run, std::size_t len) {
                       std::memcpy(run, src, len);
                       src += len;
                   });
        addr += chunk;
        size -= chunk;
    }
}

Line
DataImage::readLine(Addr addr) const
{
    Line line;
    read(lineAlign(addr), kLineBytes, line.data());
    return line;
}

void
DataImage::writeLine(Addr addr, const Line &line)
{
    write(lineAlign(addr), kLineBytes, line.data());
}

void
DataImage::writeLineWords(Addr addr, const Line &line, std::uint32_t words)
{
    const std::uint32_t capped =
        std::min<std::uint32_t>(words, kLineBytes / 8);
    if (capped == 0)
        return;
    write(lineAlign(addr), std::size_t(capped) * 8, line.data());
}

void
DataImage::clear()
{
    *this = DataImage();
}

DataImage
DataImage::clone() const
{
    DataImage copy;
    if (_records == 0)
        return copy;
    // Copy the slab with one memcpy per block, newest first, into one
    // block, then repoint the copied index: a record moves by the
    // offset its source block landed at.
    struct Moved
    {
        std::uintptr_t first;  //!< source block's first record
        std::uint8_t *to;      //!< where that record landed
    };
    std::vector<Moved> moved;
    copy.addBlock(_records);
    for (const Block *b = _newest.get(); b; b = b->prev) {
        const std::size_t used = usedEnd(b) - recordsOf(b);
        std::memcpy(copy._cursor, recordsOf(b), used);
        moved.push_back(
            {reinterpret_cast<std::uintptr_t>(recordsOf(b)), copy._cursor});
        copy._cursor += used;
    }
    std::sort(moved.begin(), moved.end(),
              [](const Moved &a, const Moved &b) { return a.first < b.first; });
    copy._records = _records;
    copy._pages = _pages;
    copy._pages.forEach([&](Addr, PageRecords &page) {
        for (std::uint8_t *&rec : page) {
            if (!rec)
                continue;
            const auto at = reinterpret_cast<std::uintptr_t>(rec);
            // The last block starting at or before the record holds it.
            const Moved &m = *std::prev(std::upper_bound(
                moved.begin(), moved.end(), at,
                [](std::uintptr_t a, const Moved &b) { return a < b.first; }));
            rec = m.to + (at - m.first);
        }
    });
    return copy;
}

} // namespace atomsim
