// The disk half of the read path, shared by every engine: point lookups and
// iterators over a published TreeVersion.  Engines differ only in tree
// shape; both functions read that shape from the version itself
// (TreeVersion::overlapping marks levels whose node ranges may overlap).
#pragma once

#include <vector>

#include "core/multiget.h"
#include "core/options.h"
#include "core/version.h"
#include "table/iterator.h"

namespace iamdb {

class DBImpl;

// Batched point lookup against `version`.  `reqs` are sorted by internal
// key, all at one snapshot sequence; already-resolved requests are skipped.
// Levels are visited top-down.  Overlapping levels are probed newest node
// first; in disjoint levels each key's covering node is binary-searched.
// Either way a node covers a contiguous run of `reqs`, which its table
// reader receives in place, so bloom/index work and cache-missing block
// reads are shared per node.  Outcomes land in each request's state/status;
// keys absent everywhere stay pending.
void VersionMultiGet(DBImpl* db, const TreeVersion& version,
                     const ReadOptions& options, MultiGetRequest* const* reqs,
                     size_t count);

// Appends internal-key iterators covering all of `version`: one per node of
// an overlapping level, one concatenating level iterator per disjoint
// level.  Every iterator pins `version` for its lifetime.
void AddVersionIterators(DBImpl* db, const TreeVersionPtr& version,
                         const ReadOptions& options,
                         std::vector<Iterator*>* iters);

}  // namespace iamdb
