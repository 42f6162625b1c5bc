// CountStore invariants:
//
//  1. ROUNDTRIP: identity, window, and every entry survive save + load
//     bit-for-bit, and the byte image is deterministic (sorted keys).
//  2. REJECTION: every truncation, magic/version damage, every single bit
//     flip, duplicate keys, and wrong-arity count vectors are all detected
//     before any counts are trusted; an identity mismatch refuses to merge
//     even a pristine file.
//  3. RUN PROTOCOL: Commit drops exactly the entries the run did not Put,
//     so candidates that fall out of the superset self-clean.
//  4. FORMAT: version 1 images (FNV-1a checksum) still load and re-save as
//     version 2 of the same length; the version 2 checksum is pinned.
//  5. CONCURRENCY: every save has its own temp file, so concurrent saves
//     to one path leave one whole store, readers only ever see whole
//     stores, and no temp files are left behind. A save onto anything but
//     a regular file fails like a rename and leaves it in place.

#include "frapp/store/count_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>

#include "frapp/store/incremental_mine.h"

namespace frapp {
namespace store {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

StoreIdentity TestIdentity() {
  StoreIdentity identity;
  identity.source_id = "unit-test-source";
  identity.schema_fingerprint = 0x1234abcd5678ef00ULL;
  identity.spec_key = "det-gd|gamma=404c000000000000";
  identity.perturb_seed = 7;
  identity.retention_bits = 0x3f8eb851eb851eb8ULL;
  identity.kind = CountKind::kSupport;
  identity.num_bits = 0;
  return identity;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The byte image `store` saves as; deterministic, so two stores are equal
/// exactly when their images are.
std::string ImageOf(const CountStore& store, const std::string& name) {
  const std::string path = TempPath(name);
  EXPECT_TRUE(store.SaveToFile(path).ok());
  return ReadAll(path);
}

/// A store with entries and a substrate of `chunks` one-plane chunks.
CountStore StoreWithSubstrate(size_t chunks, int64_t salt) {
  CountStore store(TestIdentity());
  store.BeginRun();
  store.Put({0x00010002u}, {411 + salt});
  store.Put({0x00010002u, 0x00030000u}, {97});
  std::vector<SubstrateChunk> substrate(chunks);
  for (size_t c = 0; c < chunks; ++c) {
    substrate[c].words.resize(CountStore::kSubstrateChunkWords);
    for (size_t w = 0; w < substrate[c].words.size(); ++w) {
      substrate[c].words[w] = (uint64_t{c} << 40) ^ (w * 0x9e3779b9ULL) ^
                              static_cast<uint64_t>(salt);
    }
  }
  store.UpdateSubstrate(1, 0, std::move(substrate));
  store.Commit(0, chunks * CountStore::kSubstrateChunkRows);
  return store;
}

uint64_t ReadU64At(const std::string& image, size_t offset) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(image[offset + i]);
  }
  return v;
}

/// Rewrites a version 2 image as version 1: version word 1 and a
/// byte-serial FNV-1a checksum, computed here independently of the store.
std::string AsVersion1(std::string image) {
  image[8] = 1;
  image[9] = image[10] = image[11] = 0;
  const size_t payload = image.size() - 8;
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < payload; ++i) {
    h ^= static_cast<uint8_t>(image[i]);
    h *= 0x100000001b3ULL;
  }
  for (int i = 0; i < 8; ++i) {
    image[payload + i] = static_cast<char>((h >> (8 * i)) & 0xff);
  }
  return image;
}

TEST(CountStoreTest, RoundTripsIdentityWindowAndEntries) {
  CountStore store(TestIdentity());
  store.BeginRun();
  store.Put({0x00010002u}, {411});
  store.Put({0x00010002u, 0x00030000u}, {97});
  store.Put({0x00050001u}, {12345678901LL});
  store.Commit(8192, 40960);

  const std::string path = TempPath("roundtrip.frappcnt");
  ASSERT_TRUE(store.SaveToFile(path).ok());

  StatusOr<CountStore> loaded = CountStore::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->identity() == store.identity());
  EXPECT_EQ(loaded->window_begin(), 8192u);
  EXPECT_EQ(loaded->high_water(), 40960u);
  ASSERT_EQ(loaded->num_entries(), 3u);
  const std::vector<int64_t>* pair = loaded->Find({0x00010002u, 0x00030000u});
  ASSERT_NE(pair, nullptr);
  EXPECT_EQ(*pair, (std::vector<int64_t>{97}));
  const std::vector<int64_t>* big = loaded->Find({0x00050001u});
  ASSERT_NE(big, nullptr);
  EXPECT_EQ((*big)[0], 12345678901LL);
  EXPECT_EQ(loaded->Find({0x00990000u}), nullptr);

  // Deterministic byte image: saving the loaded store reproduces the file.
  const std::string again = TempPath("roundtrip2.frappcnt");
  ASSERT_TRUE(loaded->SaveToFile(again).ok());
  EXPECT_EQ(ReadAll(path), ReadAll(again));
}

TEST(CountStoreTest, RoundTripsBooleanSupersetVectors) {
  StoreIdentity identity = TestIdentity();
  identity.kind = CountKind::kBooleanSuperset;
  identity.num_bits = 19;
  CountStore store(identity);
  store.BeginRun();
  store.Put({3u, 7u}, {100, 40, 30, 5});  // 2^2 superset counts
  store.Commit(0, 16384);

  const std::string path = TempPath("bool.frappcnt");
  ASSERT_TRUE(store.SaveToFile(path).ok());
  StatusOr<CountStore> loaded = CountStore::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::vector<int64_t>* counts = loaded->Find({3u, 7u});
  ASSERT_NE(counts, nullptr);
  EXPECT_EQ(*counts, (std::vector<int64_t>{100, 40, 30, 5}));
}

TEST(CountStoreTest, RoundTripsSubstrateChunks) {
  CountStore store(TestIdentity());
  store.BeginRun();
  store.Put({0x00010002u}, {411});
  // Two chunks of 3 planes each, distinct recognizable words.
  const uint64_t words_per_chunk = 3 * CountStore::kSubstrateChunkWords;
  std::vector<SubstrateChunk> chunks(2);
  for (size_t c = 0; c < 2; ++c) {
    chunks[c].words.resize(words_per_chunk);
    for (size_t w = 0; w < words_per_chunk; ++w) {
      chunks[c].words[w] = (uint64_t{c} << 32) | w;
    }
  }
  store.UpdateSubstrate(3, 0, chunks);
  store.Commit(8192, 8192 + 2 * CountStore::kSubstrateChunkRows);

  const std::string path = TempPath("substrate.frappcnt");
  ASSERT_TRUE(store.SaveToFile(path).ok());
  StatusOr<CountStore> loaded = CountStore::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->substrate_planes(), 3u);
  ASSERT_EQ(loaded->substrate().size(), 2u);
  EXPECT_EQ(loaded->substrate()[0].words, chunks[0].words);
  EXPECT_EQ(loaded->substrate()[1].words, chunks[1].words);

  // Expiry pops the front chunk, append pushes on the back.
  SubstrateChunk fresh;
  fresh.words.assign(words_per_chunk, 0xabcdefULL);
  loaded->UpdateSubstrate(3, 1, {fresh});
  ASSERT_EQ(loaded->substrate().size(), 2u);
  EXPECT_EQ(loaded->substrate()[0].words, chunks[1].words);
  EXPECT_EQ(loaded->substrate()[1].words, fresh.words);
}

TEST(CountStoreTest, RefusesSubstrateThatDoesNotTileTheWindow) {
  CountStore store(TestIdentity());
  store.BeginRun();
  store.Put({0x00010002u}, {411});
  SubstrateChunk chunk;
  chunk.words.assign(2 * CountStore::kSubstrateChunkWords, 7);
  store.UpdateSubstrate(2, 0, {chunk});
  // One chunk cannot tile a two-chunk window: the save must refuse rather
  // than write a store that would poison later incremental runs.
  store.Commit(0, 2 * CountStore::kSubstrateChunkRows);
  const std::string path = TempPath("badtile.frappcnt");
  EXPECT_FALSE(store.SaveToFile(path).ok());
}

TEST(CountStoreTest, RejectsDamagedFiles) {
  const CountStore store = StoreWithSubstrate(2, 0);
  const std::string path = TempPath("damaged.frappcnt");
  const std::string good = ImageOf(store, "damaged.frappcnt");
  EXPECT_EQ(good[8], 2);

  // Far-too-short file.
  WriteAll(path, good.substr(0, 10));
  EXPECT_FALSE(CountStore::LoadFromFile(path).ok());

  // Wrong magic.
  {
    std::string bad = good;
    bad[0] = 'X';
    WriteAll(path, bad);
    const StatusOr<CountStore> r = CountStore::LoadFromFile(path);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().ToString().find("not a FRAPP count store"),
              std::string::npos);
  }

  // Unknown versions (checked before the checksum, so the message is
  // specific): the next version up and a far-off one.
  for (const char version : {char{3}, char{9}}) {
    std::string bad = good;
    bad[8] = version;
    WriteAll(path, bad);
    const StatusOr<CountStore> r = CountStore::LoadFromFile(path);
    ASSERT_FALSE(r.ok()) << "version " << int{version};
    EXPECT_NE(r.status().ToString().find("format version"), std::string::npos);
  }

  // Every truncation fails cleanly.
  for (size_t len = 0; len < good.size(); ++len) {
    WriteAll(path, good.substr(0, len));
    ASSERT_FALSE(CountStore::LoadFromFile(path).ok()) << "length " << len;
  }

  // Every single flipped bit fails: in the magic or version with their own
  // message, everywhere past them (payload and stored checksum) with the
  // checksum's.
  for (size_t offset = 0; offset < good.size(); ++offset) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = good;
      bad[offset] = static_cast<char>(bad[offset] ^ (1 << bit));
      WriteAll(path, bad);
      const StatusOr<CountStore> r = CountStore::LoadFromFile(path);
      ASSERT_FALSE(r.ok()) << "offset " << offset << " bit " << bit;
      const char* want = offset < 8    ? "not a FRAPP count store"
                         : offset < 12 ? "format version"
                                       : "checksum";
      ASSERT_NE(r.status().ToString().find(want), std::string::npos)
          << "offset " << offset << " bit " << bit << ": "
          << r.status().ToString();
    }
  }

  // Intact payload restored: loads again.
  WriteAll(path, good);
  EXPECT_TRUE(CountStore::LoadFromFile(path).ok());
}

TEST(CountStoreTest, LoadsVersion1AndUpgradesOnSave) {
  const CountStore store = StoreWithSubstrate(2, 5);
  const std::string v2 = ImageOf(store, "upgrade_v2.frappcnt");
  const std::string v1 = AsVersion1(v2);
  const std::string path = TempPath("upgrade_v1.frappcnt");
  WriteAll(path, v1);

  StatusOr<CountStore> loaded = CountStore::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->identity() == store.identity());
  EXPECT_EQ(loaded->num_entries(), store.num_entries());
  ASSERT_NE(loaded->Find({0x00010002u}), nullptr);
  EXPECT_EQ(*loaded->Find({0x00010002u}), (std::vector<int64_t>{416}));
  ASSERT_EQ(loaded->substrate().size(), 2u);
  EXPECT_EQ(loaded->substrate()[0].words, store.substrate()[0].words);
  EXPECT_EQ(loaded->substrate()[1].words, store.substrate()[1].words);

  // Re-saving writes version 2, the same length, and loads equal: the
  // image is the one the original store saves as.
  ASSERT_TRUE(loaded->SaveToFile(path).ok());
  const std::string upgraded = ReadAll(path);
  EXPECT_EQ(upgraded.size(), v1.size());
  EXPECT_EQ(upgraded[8], 2);
  EXPECT_EQ(upgraded, v2);
  StatusOr<CountStore> reloaded = CountStore::LoadFromFile(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(ImageOf(*reloaded, "upgrade_again.frappcnt"), v2);

  // A version 1 image is still checksummed.
  for (const size_t offset : {size_t{12}, size_t{64}, v1.size() / 2,
                              v1.size() - 9, v1.size() - 1}) {
    std::string bad = v1;
    bad[offset] = static_cast<char>(bad[offset] ^ 0x10);
    WriteAll(path, bad);
    const StatusOr<CountStore> r = CountStore::LoadFromFile(path);
    ASSERT_FALSE(r.ok()) << "offset " << offset;
    EXPECT_NE(r.status().ToString().find("checksum"), std::string::npos);
  }
}

TEST(CountStoreTest, Version2ChecksumIsPinned) {
  // Known answer, computed from the format definition in count_store.h by
  // an implementation independent of this one. A change here breaks every
  // store already on disk.
  StoreIdentity identity = TestIdentity();
  identity.source_id = "pin";
  CountStore store(identity);
  store.BeginRun();
  store.Put({0x00010002u}, {411});
  store.Put({0x00020001u, 0x00030004u}, {-5});
  store.Commit(0, 8192);
  const std::string image = ImageOf(store, "pinned.frappcnt");
  ASSERT_EQ(image.size(), 180u);
  EXPECT_EQ(ReadU64At(image, image.size() - 8), 0xc68e93f855ea55a0ULL);
}

TEST(CountStoreTest, RoundTripsEveryPayloadLengthModEight) {
  // Source id lengths 0-7 move the payload length through every residue
  // mod 8, so the checksum's zero-padded tail word takes 0-7 bytes.
  std::set<size_t> residues;
  for (size_t len = 0; len < 8; ++len) {
    StoreIdentity identity = TestIdentity();
    identity.source_id = std::string(len, 'a' + static_cast<char>(len));
    CountStore store(identity);
    store.BeginRun();
    store.Put({0x00010002u}, {static_cast<int64_t>(len)});
    store.Commit(0, 8192);
    const std::string path = TempPath("tail" + std::to_string(len));
    ASSERT_TRUE(store.SaveToFile(path).ok());
    residues.insert((ReadAll(path).size() - 8) % 8);
    StatusOr<CountStore> loaded = CountStore::LoadFromFile(path);
    ASSERT_TRUE(loaded.ok()) << "length " << len << ": "
                             << loaded.status().ToString();
    EXPECT_TRUE(loaded->identity() == identity);
    ASSERT_NE(loaded->Find({0x00010002u}), nullptr);
    EXPECT_EQ((*loaded->Find({0x00010002u}))[0], static_cast<int64_t>(len));
  }
  EXPECT_EQ(residues.size(), 8u);
}

TEST(CountStoreTest, SaveLeavesOtherTempFilesAlone) {
  // A temp file some other writer is still filling (here under the name
  // every writer once shared) is neither truncated nor renamed by a save.
  const std::filesystem::path dir = TempPath("foreign_temp");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "store.frappcnt").string();
  const std::string foreign = path + ".tmp";
  WriteAll(foreign, "another writer's half-written store");

  const CountStore store = StoreWithSubstrate(2, 3);
  ASSERT_TRUE(store.SaveToFile(path).ok());
  EXPECT_EQ(ReadAll(foreign), "another writer's half-written store");
  StatusOr<CountStore> loaded = CountStore::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(ImageOf(*loaded, "foreign_temp_reload.frappcnt"),
            ImageOf(store, "foreign_temp_expected.frappcnt"));
  std::filesystem::remove_all(dir);
}

TEST(CountStoreTest, SaveOntoDirectoryFailsAndLeavesItInPlace) {
  // Only a regular file is swapped out; a directory at the path makes the
  // save fail as a rename would, with the directory and its contents kept
  // and no temp file left.
  const std::filesystem::path dir = TempPath("directory_target");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir / "store.frappcnt");
  WriteAll((dir / "store.frappcnt" / "kept").string(), "kept");
  const std::string path = (dir / "store.frappcnt").string();

  EXPECT_FALSE(StoreWithSubstrate(2, 4).SaveToFile(path).ok());
  EXPECT_TRUE(std::filesystem::is_directory(path));
  EXPECT_EQ(ReadAll(path + "/kept"), "kept");
  std::vector<std::string> left;
  for (const auto& file : std::filesystem::directory_iterator(dir)) {
    left.push_back(file.path().filename().string());
  }
  EXPECT_EQ(left, std::vector<std::string>{"store.frappcnt"});
  std::filesystem::remove_all(dir);
}

TEST(CountStoreTest, SavesOverAStoreAndLeavesNoTempFile) {
  const std::filesystem::path dir = TempPath("save_over");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "store.frappcnt").string();
  const CountStore a = StoreWithSubstrate(2, 5);
  const CountStore b = StoreWithSubstrate(3, 6);

  ASSERT_TRUE(a.SaveToFile(path).ok());
  // A reader holding the old store open keeps reading the old image.
  std::ifstream held(path, std::ios::binary);
  ASSERT_TRUE(b.SaveToFile(path).ok());
  const std::string held_image((std::istreambuf_iterator<char>(held)),
                               std::istreambuf_iterator<char>());
  EXPECT_EQ(held_image, ImageOf(a, "save_over_a.frappcnt"));
  EXPECT_EQ(ReadAll(path), ImageOf(b, "save_over_b.frappcnt"));
  std::vector<std::string> left;
  for (const auto& file : std::filesystem::directory_iterator(dir)) {
    left.push_back(file.path().filename().string());
  }
  EXPECT_EQ(left, std::vector<std::string>{"store.frappcnt"});
  std::filesystem::remove_all(dir);
}

TEST(CountStoreTest, ConcurrentSavesLeaveOneWholeStore) {
  const std::filesystem::path dir = TempPath("concurrent_saves");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "store.frappcnt").string();

  // Stores of 16 and 24 substrate chunks (16 and 24 KiB), so each save
  // spends long enough writing that the writers' saves overlap.
  const CountStore a = StoreWithSubstrate(16, 1);
  const CountStore b = StoreWithSubstrate(24, 2);
  const std::string image_a = ImageOf(a, "concurrent_a.frappcnt");
  const std::string image_b = ImageOf(b, "concurrent_b.frappcnt");
  ASSERT_NE(image_a, image_b);

  ASSERT_TRUE(a.SaveToFile(path).ok());

  // A reader loads the path throughout: a swapped-in file is never written
  // again, so every load must see one whole store.
  std::atomic<int> ready{0};
  std::atomic<int> writers_done{0};
  auto save_loop = [&](const CountStore* store, bool* ok) {
    ready.fetch_add(1);
    while (ready.load() < 3) {
    }
    for (int i = 0; i < 50; ++i) *ok = store->SaveToFile(path).ok() && *ok;
    writers_done.fetch_add(1);
  };
  int failed_loads = 0;
  auto load_loop = [&] {
    ready.fetch_add(1);
    while (ready.load() < 3) {
    }
    while (writers_done.load() < 2) {
      if (!CountStore::LoadFromFile(path).ok()) ++failed_loads;
    }
  };
  bool ok_a = true;
  bool ok_b = true;
  std::thread writer_a(save_loop, &a, &ok_a);
  std::thread writer_b(save_loop, &b, &ok_b);
  std::thread reader(load_loop);
  writer_a.join();
  writer_b.join();
  reader.join();
  EXPECT_TRUE(ok_a);
  EXPECT_TRUE(ok_b);
  EXPECT_EQ(failed_loads, 0);

  StatusOr<CountStore> loaded = CountStore::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::string final_image = ImageOf(*loaded, "concurrent_final.frappcnt");
  EXPECT_TRUE(final_image == image_a || final_image == image_b);

  std::vector<std::string> left;
  for (const auto& file : std::filesystem::directory_iterator(dir)) {
    left.push_back(file.path().filename().string());
  }
  EXPECT_EQ(left, std::vector<std::string>{"store.frappcnt"});
  std::filesystem::remove_all(dir);
}

TEST(CountStoreTest, LoadOrCreateValidatesIdentity) {
  const std::string path = TempPath("identity.frappcnt");
  std::remove(path.c_str());

  bool created = false;
  StatusOr<CountStore> fresh = LoadOrCreateStore(path, TestIdentity(), &created);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(created);
  EXPECT_EQ(fresh->num_entries(), 0u);
  fresh->BeginRun();
  fresh->Put({0x00010002u}, {5});
  fresh->Commit(0, 8192);
  ASSERT_TRUE(fresh->SaveToFile(path).ok());

  // Same identity: loads the materialized entries.
  StatusOr<CountStore> same = LoadOrCreateStore(path, TestIdentity(), &created);
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  EXPECT_FALSE(created);
  EXPECT_EQ(same->num_entries(), 1u);

  // A drifted retention threshold is OWNED by the file, not a mismatch.
  StoreIdentity drifted = TestIdentity();
  drifted.retention_bits ^= 0xffULL;
  EXPECT_TRUE(LoadOrCreateStore(path, drifted, &created).ok());

  // Any other identity change refuses the file.
  for (StoreIdentity bad : {TestIdentity(), TestIdentity(), TestIdentity()}) {
    static int field = 0;
    switch (field++) {
      case 0: bad.perturb_seed = 8; break;
      case 1: bad.spec_key = "mask|gamma=..."; break;
      default: bad.source_id = "other-table"; break;
    }
    const StatusOr<CountStore> r = LoadOrCreateStore(path, bad, &created);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  }
}

TEST(CountStoreTest, CommitDropsEntriesTheRunDidNotTouch) {
  CountStore store(TestIdentity());
  store.BeginRun();
  store.Put({1u}, {10});
  store.Put({2u}, {20});
  store.Put({3u}, {30});
  EXPECT_EQ(store.Commit(0, 8192), 0u);
  EXPECT_EQ(store.num_entries(), 3u);

  // Next run only touches {1} and {3}: {2} fell out of the superset.
  store.BeginRun();
  store.Put({1u}, {11});
  store.Put({3u}, {33});
  EXPECT_EQ(store.Commit(0, 16384), 1u);
  EXPECT_EQ(store.num_entries(), 2u);
  EXPECT_EQ(store.Find({2u}), nullptr);
  ASSERT_NE(store.Find({1u}), nullptr);
  EXPECT_EQ((*store.Find({1u}))[0], 11);
  EXPECT_EQ(store.window_begin(), 0u);
  EXPECT_EQ(store.high_water(), 16384u);
}

}  // namespace
}  // namespace store
}  // namespace frapp
