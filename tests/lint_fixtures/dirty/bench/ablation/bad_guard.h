// Dirty fixture: the ablation library is in scope too; this include guard
// should be OVC_BENCH_ABLATION_BAD_GUARD_H_ (OVC-L006).
#ifndef BAD_GUARD_H
#define BAD_GUARD_H

#endif  // BAD_GUARD_H
