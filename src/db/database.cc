#include "db/database.h"

#include <algorithm>

namespace ccsim::db {

DatabaseLayout::DatabaseLayout(const config::DatabaseParams& params,
                               int num_data_disks)
    : params_(params), num_data_disks_(num_data_disks) {
  CCSIM_CHECK(num_data_disks_ >= 1);
  class_base_.resize(static_cast<std::size_t>(params_.num_classes));
  for (int c = 0; c < params_.num_classes; ++c) {
    class_base_[static_cast<std::size_t>(c)] = total_pages_;
    total_pages_ += pages_in_class(c);
  }
}

int DatabaseLayout::ClassOfPage(PageId page) const {
  CCSIM_DCHECK(page >= 0 && page < total_pages_);
  // Binary search for the last class whose base is <= page.
  auto it = std::upper_bound(class_base_.begin(), class_base_.end(),
                             static_cast<std::int64_t>(page));
  return static_cast<int>(it - class_base_.begin()) - 1;
}

std::int64_t DatabaseLayout::DiskOffsetOfPage(PageId page) const {
  // Classes stack up on their disk in class order; the offset is the sum of
  // the sizes of earlier classes on the same disk plus the in-class atom.
  const int cls = ClassOfPage(page);
  std::int64_t offset = 0;
  for (int c = cls % num_data_disks_; c < cls; c += num_data_disks_) {
    offset += pages_in_class(c);
  }
  return offset + (page - class_base_[static_cast<std::size_t>(cls)]);
}

ObjectRef DatabaseLayout::RandomObject(sim::Pcg32& rng) const {
  // Pick a global atom uniformly, derive its class, then a uniform start
  // atom within that class. This weights classes by page count, so each
  // atom is equally likely to be the anchor (paper: "each object had equal
  // probability of being accessed").
  const std::int64_t anchor = rng.UniformInt(0, total_pages_ - 1);
  const int cls = ClassOfPage(static_cast<PageId>(anchor));
  ObjectRef object;
  object.cls = cls;
  object.start_atom = static_cast<std::int32_t>(
      anchor - class_base_[static_cast<std::size_t>(cls)]);
  object.size = params_.ObjectSizeInClass(cls);
  return object;
}

ObjectPages DatabaseLayout::PagesOf(const ObjectRef& object) const {
  ObjectPages pages;
  pages.reserve(static_cast<std::size_t>(object.size));
  for (int i = 0; i < object.size; ++i) {
    pages.push_back(PageOf(object.cls, object.start_atom + i));
  }
  return pages;
}

}  // namespace ccsim::db
