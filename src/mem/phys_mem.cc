#include "mem/phys_mem.hh"

#include <new>

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
DataImage::Stripe::addBlock(std::size_t n)
{
    // Records are left uninitialized: write() zeroes a record it only
    // partly covers.
    void *mem = ::operator new(sizeof(Block) + n * kRecordBytes);
    Block *block = new (mem) Block{newest.release(), n};
    newest.reset(block);
    cursor = recordsOf(block);
    blockEnd = cursor + n * kRecordBytes;
}

void
DataImage::read(Addr addr, std::size_t size, void *out) const
{
    auto *dst = static_cast<std::uint8_t *>(out);
    while (size > 0) {
        const Addr page_num = addr >> kPageShift;
        const std::size_t chunk =
            std::min(size, kPageBytes - std::size_t(addr & (kPageBytes - 1)));
        const PageRecords *page =
            _stripes[page_num % kStripes].pages.find(page_num);
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
        Stripe &stripe = _stripes[page_num % kStripes];
        // Valid across both loops: they insert nothing in the table.
        PageRecords &page = stripe.pages[page_num];
        // Materialize the missing records first, so records allocated
        // together are then written as one run.
        for (Addr rec_addr = addr & ~Addr(kRecordBytes - 1);
             rec_addr < addr + chunk; rec_addr += kRecordBytes) {
            std::uint8_t *&rec = page[recordIndex(rec_addr)];
            if (rec)
                continue;
            rec = stripe.newRecord();
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
    for (auto &s : _stripes)
        s = Stripe{};
}

DataImage
DataImage::clone() const
{
    DataImage copy;
    for (std::uint32_t s = 0; s < kStripes; ++s) {
        const Stripe &from = _stripes[s];
        if (from.records == 0)
            continue;
        // Copy the slab with one memcpy per block, newest first, into
        // one block, then repoint the copied index: a record moves by
        // the offset its source block landed at.
        Stripe &to = copy._stripes[s];
        to.addBlock(from.records);
        std::uint8_t *const base = to.cursor;
        for (const Block *b = from.newest.get(); b; b = b->prev) {
            const std::size_t used = from.usedEnd(b) - Stripe::recordsOf(b);
            std::memcpy(to.cursor, Stripe::recordsOf(b), used);
            to.cursor += used;
        }
        to.records = from.records;
        to.pages = from.pages;
        to.pages.forEach([&](Addr, PageRecords &page) {
            for (std::uint8_t *&rec : page) {
                if (!rec)
                    continue;
                const auto at = reinterpret_cast<std::uintptr_t>(rec);
                // The newest blocks are the largest, so the walk
                // usually stops at the first or second.
                std::uint8_t *dst = base;
                for (const Block *b = from.newest.get();; b = b->prev) {
                    const auto first =
                        reinterpret_cast<std::uintptr_t>(Stripe::recordsOf(b));
                    const auto last =
                        reinterpret_cast<std::uintptr_t>(from.usedEnd(b));
                    if (at >= first && at < last) {
                        rec = dst + (at - first);
                        break;
                    }
                    dst += last - first;
                }
            }
        });
    }
    return copy;
}

} // namespace atomsim
