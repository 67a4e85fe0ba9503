// L1 positive: src/stats (rank 1) reaching up into src/robust (rank 2) —
// the PMF is a stats-layer container and must not know about the WCDE
// solver built on top of it.
// rushlint-fixture-path: src/stats/pmf_extras.cc
#include "src/robust/wcde.h"
