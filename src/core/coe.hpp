#pragma once
// Umbrella header for the minicoe core: portability layer, machine models,
// buffers, memory pools, and reporting utilities.

#include "core/buffer.hpp"
#include "core/cost.hpp"
#include "core/exec.hpp"
#include "core/machine.hpp"
#include "core/pool.hpp"
#include "core/rng.hpp"
#include "core/table.hpp"
#include "core/view.hpp"
