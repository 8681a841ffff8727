/** @file Unit tests for the functional memory image. */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "trace/memory_image.hh"

using namespace microlib;

TEST(MemoryImage, WriteThenRead)
{
    MemoryImage img;
    img.write(0x1000, 42);
    EXPECT_EQ(img.read(0x1000), 42u);
}

TEST(MemoryImage, UnalignedAccessTruncatesToWord)
{
    MemoryImage img;
    img.write(0x1003, 7); // lands in word 0x1000
    EXPECT_EQ(img.read(0x1000), 7u);
    EXPECT_EQ(img.read(0x1007), 7u);
}

TEST(MemoryImage, DefaultValuesDeterministic)
{
    MemoryImage a, b;
    EXPECT_EQ(a.read(0xdeadbeef), b.read(0xdeadbeef));
    EXPECT_NE(a.read(0x1000), a.read(0x1008)); // different words differ
}

TEST(MemoryImage, DefaultValuesNeverLookLikeHeapPointers)
{
    MemoryImage img;
    for (Addr a = 0x10000000; a < 0x10000000 + 4096; a += 8) {
        const Word v = img.read(a);
        // defaultValue() forces the top byte, above any heap address.
        EXPECT_GE(v, 0xff00000000000000ull);
    }
}

TEST(MemoryImage, TouchedTracking)
{
    MemoryImage img;
    EXPECT_FALSE(img.touched(0x2000));
    img.write(0x2000, 1);
    EXPECT_TRUE(img.touched(0x2000));
    EXPECT_FALSE(img.touched(0x2008));
}

TEST(MemoryImage, ReadLine)
{
    MemoryImage img;
    img.write(0x1000, 1);
    img.write(0x1008, 2);
    std::vector<Word> words;
    img.readLine(0x1010, 32, words); // line 0x1000..0x101f
    ASSERT_EQ(words.size(), 4u);
    EXPECT_EQ(words[0], 1u);
    EXPECT_EQ(words[1], 2u);
}

TEST(MemoryImage, CopySemantics)
{
    MemoryImage img;
    img.write(0x3000, 5);
    MemoryImage copy = img;
    copy.write(0x3000, 9);
    EXPECT_EQ(img.read(0x3000), 5u); // deep copy
    EXPECT_EQ(copy.read(0x3000), 9u);
}

TEST(MemoryImage, SparseAllocation)
{
    MemoryImage img;
    img.write(0x0, 1);
    img.write(0x10000000, 1);
    EXPECT_EQ(img.allocatedPages(), 2u);
}

TEST(MemoryImage, ManyPagesSurviveTableGrowth)
{
    // Page indices that share low bits and cluster, well past the
    // initial table size, so the page table rehashes several times.
    MemoryImage img;
    std::vector<Addr> pages;
    for (Addr i = 0; i < 3000; ++i)
        pages.push_back((i % 3 == 0 ? i << 12 : i + 0x8000) *
                        MemoryImage::page_bytes);
    for (const Addr a : pages)
        img.write(a + 16, a ^ 0x5a);
    ASSERT_EQ(img.allocatedPages(), pages.size());
    for (const Addr a : pages) {
        EXPECT_EQ(img.read(a + 16), a ^ 0x5a);
        EXPECT_TRUE(img.touched(a + 16));
        EXPECT_FALSE(img.touched(a + 24));
        EXPECT_EQ(img.read(a + 24), MemoryImage::defaultValue(a + 24));
    }

    // forEachPage visits ascending page indices, whatever the table
    // order; a copy visits the same pages with the same bytes.
    const MemoryImage copy = img;
    std::vector<Addr> seen, copied;
    img.forEachPage([&](Addr page, const Word *words,
                        const std::uint64_t *mask) {
        seen.push_back(page);
        EXPECT_EQ(words[2], (page * MemoryImage::page_bytes) ^ 0x5a);
        EXPECT_EQ(mask[0], 1ull << 2);
    });
    copy.forEachPage([&](Addr page, const Word *, const std::uint64_t *) {
        copied.push_back(page);
    });
    std::vector<Addr> expect;
    for (const Addr a : pages)
        expect.push_back(a / MemoryImage::page_bytes);
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(seen, expect);
    EXPECT_EQ(copied, expect);
}

TEST(MemoryImage, ReadLineSpanningPages)
{
    MemoryImage img;
    img.write(MemoryImage::page_bytes - 8, 3);
    img.write(MemoryImage::page_bytes, 4);
    std::vector<Word> words;
    img.readLine(0, 2 * MemoryImage::page_bytes, words);
    ASSERT_EQ(words.size(), 2 * MemoryImage::words_per_page);
    EXPECT_EQ(words[MemoryImage::words_per_page - 1], 3u);
    EXPECT_EQ(words[MemoryImage::words_per_page], 4u);
    EXPECT_EQ(words[1], MemoryImage::defaultValue(8));
}

TEST(MemoryImage, BorrowedPagesReadInPlaceAndCopyOwned)
{
    // Two stored pages, as a trace-arena file holds them.
    auto stored = std::make_shared<std::vector<MemoryImage::StoredPage>>(2);
    (*stored)[0].index = 0x5;
    (*stored)[0].page.words[0] = 7;
    (*stored)[0].page.written_mask[0] = 1;
    (*stored)[1].index = 0x9;
    (*stored)[1].page.words[MemoryImage::words_per_page - 1] = 11;
    (*stored)[1].page.written_mask.back() = 1ull << 63;
    const MemoryImage::StoredPage *pages = stored->data();

    // The image keeps its backing alive after every other owner
    // lets go, and reads the stored words where they lie.
    const std::vector<Addr> indices = {0x5, 0x9};
    const std::shared_ptr<const MemoryImage> img =
        MemoryImage::borrow(pages, indices, std::move(stored));
    EXPECT_EQ(img->allocatedPages(), 2u);
    EXPECT_EQ(img->ownedPages(), 0u);
    EXPECT_EQ(img->read(0x5000), 7u);
    EXPECT_TRUE(img->touched(0x5000));
    EXPECT_FALSE(img->touched(0x5008));
    EXPECT_EQ(img->read(0x5008), MemoryImage::defaultValue(0x5008));
    EXPECT_EQ(img->read(0x9ff8), 11u);
    EXPECT_EQ(img->read(0x7000), MemoryImage::defaultValue(0x7000));
    std::vector<Addr> seen;
    img->forEachPage([&](Addr page, const Word *words,
                         const std::uint64_t *) {
        seen.push_back(page);
        EXPECT_EQ(words, page == 0x5 ? &pages[0].page.words[0]
                                     : &pages[1].page.words[0]);
    });
    EXPECT_EQ(seen, (std::vector<Addr>{0x5, 0x9}));

    // A copy owns its pages and can be written; the borrowed pages
    // stay as they were.
    MemoryImage copy = *img;
    EXPECT_EQ(copy.ownedPages(), 2u);
    copy.write(0x5000, 8);
    copy.write(0x6000, 9);
    EXPECT_EQ(copy.read(0x5000), 8u);
    EXPECT_EQ(copy.read(0x6000), 9u);
    EXPECT_EQ(copy.read(0x9ff8), 11u);
    EXPECT_EQ(copy.allocatedPages(), 3u);
    EXPECT_EQ(img->read(0x5000), 7u);
    EXPECT_EQ(pages[0].page.words[0], 7u);
    EXPECT_FALSE(img->touched(0x6000));
}

TEST(MemoryImage, BorrowSizesTheTableForManyPages)
{
    auto stored =
        std::make_shared<std::vector<MemoryImage::StoredPage>>(1000);
    for (std::size_t i = 0; i < stored->size(); ++i) {
        (*stored)[i].index = 3 * i;
        (*stored)[i].page.words[1] = i;
        (*stored)[i].page.written_mask[0] = 2;
    }
    const MemoryImage::StoredPage *pages = stored->data();
    std::vector<Addr> indices(1000);
    for (std::size_t i = 0; i < indices.size(); ++i)
        indices[i] = 3 * i;
    const auto img = MemoryImage::borrow(pages, indices, stored);
    for (std::size_t i = 0; i < 1000; ++i)
        EXPECT_EQ(img->read(3 * i * MemoryImage::page_bytes + 8), i);
    EXPECT_FALSE(img->touched(MemoryImage::page_bytes + 8));
    // Only the slot table is the image's own.
    EXPECT_LT(img->ownedBytes(), 1000 * sizeof(MemoryImage::Page) / 8);
}

TEST(MemoryImage, BorrowTakesItsIndicesFromTheCaller)
{
    // The slot table is built from the indices passed in, not from
    // the stored entries: the stored index fields here are garbage,
    // and borrowing must not read them (a mapped page would become
    // resident just to be indexed).
    auto stored = std::make_shared<std::vector<MemoryImage::StoredPage>>(3);
    for (std::size_t i = 0; i < stored->size(); ++i) {
        (*stored)[i].index = ~std::uint64_t(0) - i;
        (*stored)[i].page.words[0] = 100 + i;
        (*stored)[i].page.written_mask[0] = 1;
    }
    const std::vector<Addr> indices = {0x10, 0x20, 0x30};
    const auto img =
        MemoryImage::borrow(stored->data(), indices, stored);
    EXPECT_EQ(img->allocatedPages(), 3u);
    for (std::size_t i = 0; i < indices.size(); ++i)
        EXPECT_EQ(img->read(indices[i] * MemoryImage::page_bytes), 100 + i);
    std::vector<Addr> seen;
    img->forEachPage([&](Addr page, const Word *, const std::uint64_t *) {
        seen.push_back(page);
    });
    EXPECT_EQ(seen, indices);
}
