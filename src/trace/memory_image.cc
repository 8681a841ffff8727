#include "trace/memory_image.hh"

#include <algorithm>

namespace microlib
{

namespace
{

/** log2 of a new image's slot count. */
constexpr unsigned initial_log2_slots = 6;

} // namespace

MemoryImage::MemoryImage() : MemoryImage(initial_log2_slots) {}

MemoryImage::MemoryImage(unsigned log2_slots)
    : _slots(std::size_t(1) << log2_slots), _shift(64 - log2_slots)
{
}

std::shared_ptr<const MemoryImage>
MemoryImage::borrow(const StoredPage *pages, std::span<const Addr> indices,
                    std::shared_ptr<const void> backing)
{
    const std::size_t count = indices.size();
    // Size the table once, at most half full, as pageFor() keeps it.
    unsigned log2_slots = initial_log2_slots;
    while ((std::size_t(1) << log2_slots) < 2 * count)
        ++log2_slots;
    std::shared_ptr<MemoryImage> image(new MemoryImage(log2_slots));
    for (std::size_t i = 0; i < count; ++i)
        image->insert(indices[i], &pages[i].page);
    image->_borrowed = count;
    image->_backing = std::move(backing);
    return image;
}

MemoryImage::MemoryImage(const MemoryImage &other)
    : _slots(other._slots.size()), _shift(other._shift)
{
    _pages.reserve(other._pages.size());
    for (const Slot &slot : other._slots) {
        if (!slot.page)
            continue;
        _pages.push_back(std::make_unique<Page>(*slot.page));
        insert(slot.index, _pages.back().get());
    }
}

void
MemoryImage::insert(Addr page_index, const Page *page)
{
    std::size_t i = home(page_index);
    while (_slots[i].page)
        i = (i + 1) & (_slots.size() - 1);
    _slots[i] = Slot{page_index, page};
}

MemoryImage::Page &
MemoryImage::pageFor(Addr page_index)
{
    // Only borrow() makes borrowed pages, and it hands its image out
    // const: every page of an image being written is one of _pages.
    if (const Page *page = find(page_index))
        return const_cast<Page &>(*page);
    if (2 * (_pages.size() + 1) > _slots.size()) {
        // Keep the table at most half full: double and rehash.
        std::vector<Slot> old(_slots.size() * 2);
        old.swap(_slots);
        --_shift;
        for (const Slot &slot : old)
            if (slot.page)
                insert(slot.index, slot.page);
    }
    _pages.push_back(std::make_unique<Page>());
    insert(page_index, _pages.back().get());
    return *_pages.back();
}

void
MemoryImage::forEachPage(
    const std::function<void(Addr, const Word *,
                             const std::uint64_t *)> &fn) const
{
    std::vector<Slot> sorted;
    sorted.reserve(_pages.size());
    for (const Slot &slot : _slots)
        if (slot.page)
            sorted.push_back(slot);
    std::sort(sorted.begin(), sorted.end(),
              [](const Slot &a, const Slot &b) { return a.index < b.index; });
    for (const Slot &slot : sorted)
        fn(slot.index, slot.page->words.data(),
           slot.page->written_mask.data());
}

void
MemoryImage::write(Addr addr, Word value)
{
    Page &page = pageFor(addr / page_bytes);
    const std::size_t idx = (addr % page_bytes) / 8;
    page.words[idx] = value;
    page.written_mask[idx / 64] |= 1ull << (idx % 64);
}

bool
MemoryImage::touched(Addr addr) const
{
    const Page *page = find(addr / page_bytes);
    if (!page)
        return false;
    const std::size_t idx = (addr % page_bytes) / 8;
    return page->written_mask[idx / 64] & (1ull << (idx % 64));
}

void
MemoryImage::readLine(Addr addr, std::uint64_t line_bytes,
                      std::vector<Word> &out) const
{
    const Addr base = alignDown(addr, line_bytes);
    out.resize(line_bytes / 8);
    // One lookup per page the line spans (one for any line of at most
    // a page), not one per word.
    Addr page_index = base / page_bytes;
    const Page *page = find(page_index);
    for (std::size_t i = 0; i < out.size(); ++i) {
        const Addr a = base + i * 8;
        if (a / page_bytes != page_index) {
            page_index = a / page_bytes;
            page = find(page_index);
        }
        out[i] = wordIn(page, a);
    }
}

} // namespace microlib
