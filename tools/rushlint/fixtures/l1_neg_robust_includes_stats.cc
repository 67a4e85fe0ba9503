// L1 negative: src/robust (rank 2) reaching down into src/stats (rank 1)
// is the sanctioned direction — the WCDE solver is built on the stats
// layer's demand PMF.
// rushlint-fixture-path: src/robust/wcde_extras.cc
#include "src/common/units.h"
#include "src/stats/pmf.h"
