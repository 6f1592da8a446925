// Unit tests for the database model: layout, class-to-disk placement,
// object/page mapping with subobject sharing, and version tracking.

#include <gtest/gtest.h>

#include <set>

#include "config/params.h"
#include "db/database.h"
#include "sim/random.h"

namespace ccsim::db {
namespace {

config::DatabaseParams MakeParams(int classes, int pages, int object_size) {
  config::DatabaseParams params;
  params.num_classes = classes;
  params.pages_per_class = {pages};
  params.object_size = {object_size};
  return params;
}

TEST(DatabaseLayoutTest, TotalAndPerClassPages) {
  DatabaseLayout layout(MakeParams(40, 50, 1), 2);
  EXPECT_EQ(layout.num_classes(), 40);
  EXPECT_EQ(layout.total_pages(), 2000);
  EXPECT_EQ(layout.pages_in_class(7), 50);
}

TEST(DatabaseLayoutTest, HeterogeneousClassSizes) {
  config::DatabaseParams params;
  params.num_classes = 3;
  params.pages_per_class = {10, 20, 30};
  params.object_size = {1, 2, 3};
  DatabaseLayout layout(params, 2);
  EXPECT_EQ(layout.total_pages(), 60);
  EXPECT_EQ(layout.PageOf(0, 0), 0);
  EXPECT_EQ(layout.PageOf(1, 0), 10);
  EXPECT_EQ(layout.PageOf(2, 0), 30);
  EXPECT_EQ(layout.ClassOfPage(9), 0);
  EXPECT_EQ(layout.ClassOfPage(10), 1);
  EXPECT_EQ(layout.ClassOfPage(59), 2);
}

TEST(DatabaseLayoutTest, PageOfWrapsWithinClass) {
  DatabaseLayout layout(MakeParams(2, 10, 1), 2);
  EXPECT_EQ(layout.PageOf(0, 12), 2);   // wraps modulo 10
  EXPECT_EQ(layout.PageOf(1, 10), 10);  // class 1 starts at page 10
}

TEST(DatabaseLayoutTest, ClassesRoundRobinAcrossDisks) {
  DatabaseLayout layout(MakeParams(5, 10, 1), 2);
  EXPECT_EQ(layout.DiskOfClass(0), 0);
  EXPECT_EQ(layout.DiskOfClass(1), 1);
  EXPECT_EQ(layout.DiskOfClass(2), 0);
  EXPECT_EQ(layout.DiskOfPage(0), 0);
  EXPECT_EQ(layout.DiskOfPage(10), 1);
}

TEST(DatabaseLayoutTest, DiskOffsetsStackClassesPerDisk) {
  DatabaseLayout layout(MakeParams(4, 10, 1), 2);
  // Disk 0 holds classes 0 and 2; class 2's pages follow class 0's.
  EXPECT_EQ(layout.DiskOffsetOfPage(layout.PageOf(0, 3)), 3);
  EXPECT_EQ(layout.DiskOffsetOfPage(layout.PageOf(2, 3)), 13);
  // Disk 1 holds classes 1 and 3.
  EXPECT_EQ(layout.DiskOffsetOfPage(layout.PageOf(1, 0)), 0);
  EXPECT_EQ(layout.DiskOffsetOfPage(layout.PageOf(3, 9)), 19);
}

TEST(DatabaseLayoutTest, ObjectSpansConsecutiveAtoms) {
  DatabaseLayout layout(MakeParams(1, 10, 3), 1);
  ObjectRef object{0, 4, 3};
  EXPECT_EQ(layout.PagesOf(object), (std::vector<PageId>{4, 5, 6}));
  // Wrap at the class boundary.
  ObjectRef wrapping{0, 9, 3};
  EXPECT_EQ(layout.PagesOf(wrapping), (std::vector<PageId>{9, 0, 1}));
}

TEST(DatabaseLayoutTest, ObjectsShareAtoms) {
  // Paper Figure 2: objects of one class starting at nearby atoms overlap.
  DatabaseLayout layout(MakeParams(1, 10, 4), 1);
  const ObjectPages a = layout.PagesOf(ObjectRef{0, 2, 4});
  const ObjectPages b = layout.PagesOf(ObjectRef{0, 4, 4});
  std::set<PageId> shared;
  for (PageId page : a) {
    for (PageId other : b) {
      if (page == other) {
        shared.insert(page);
      }
    }
  }
  EXPECT_EQ(shared, (std::set<PageId>{4, 5}));
}

TEST(DatabaseLayoutTest, RandomObjectUniformOverAtoms) {
  DatabaseLayout layout(MakeParams(4, 50, 1), 2);
  sim::Pcg32 rng(3, 3);
  std::vector<int> class_counts(4, 0);
  std::set<PageId> seen;
  for (int i = 0; i < 20000; ++i) {
    const ObjectRef object = layout.RandomObject(rng);
    ASSERT_GE(object.cls, 0);
    ASSERT_LT(object.cls, 4);
    ASSERT_GE(object.start_atom, 0);
    ASSERT_LT(object.start_atom, 50);
    ++class_counts[static_cast<std::size_t>(object.cls)];
    seen.insert(layout.PagesOf(object)[0]);
  }
  // Equal-sized classes drawn ~uniformly.
  for (int count : class_counts) {
    EXPECT_NEAR(count, 5000, 350);
  }
  // Every page eventually anchors an object.
  EXPECT_EQ(seen.size(), 200u);
}

TEST(VersionTableTest, StartsAtOneAndBumps) {
  VersionTable versions(10);
  EXPECT_EQ(versions.Get(3), 1u);
  EXPECT_EQ(versions.Bump(3), 2u);
  EXPECT_EQ(versions.Bump(3), 3u);
  EXPECT_EQ(versions.Get(3), 3u);
  EXPECT_EQ(versions.Get(4), 1u);  // others untouched
}

}  // namespace
}  // namespace ccsim::db
