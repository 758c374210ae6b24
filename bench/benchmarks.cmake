# Bench binaries. Included from the top-level CMakeLists (not
# add_subdirectory) so ${CMAKE_BINARY_DIR}/bench contains only the
# produced executables and `for b in build/bench/*; do $b; done` works.

# Shared sweep harness (flag parsing, parallel execution, JSON records).
# alloc_count.cpp replaces the global operator new/delete with counting
# versions; it lives here — and only here — so every bench binary gets
# exactly one definition (defining it per-binary would collide with the
# harness at link time).
add_library(bench_harness STATIC
  ${CMAKE_SOURCE_DIR}/bench/harness.cpp
  ${CMAKE_SOURCE_DIR}/bench/alloc_count.cpp)
target_link_libraries(bench_harness PUBLIC smst::smst)
target_include_directories(bench_harness PUBLIC ${CMAKE_SOURCE_DIR}/bench)

set(SMST_BENCHES
  bench_table1_awake.cpp
  bench_table1_runtime.cpp
  bench_lb_awake_ring.cpp
  bench_lb_product_grc.cpp
  bench_grc_structure.cpp
  bench_fragment_decay.cpp
  bench_blue_fraction.cpp
  bench_phase_cost.cpp
  bench_coloring_ablation.cpp
  bench_termination_ablation.cpp
  bench_diameter_independence.cpp
  bench_adaptive_blocks.cpp
  bench_robustness.cpp
  bench_micro.cpp
  bench_sharded.cpp
  bench_flat.cpp
)

foreach(src ${SMST_BENCHES})
  get_filename_component(name ${src} NAME_WE)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${src})
  target_link_libraries(${name} PRIVATE bench_harness smst::smst
                                        benchmark::benchmark)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endforeach()

# The shared harness exits 2 on a flag it does not know, here the CLI's
# --seed where the harness takes --seeds, instead of running the full
# sweep as if the flag were absent.
add_test(NAME bench_rejects_unknown_flag
         COMMAND bench_fragment_decay --seeds 1 --seed 3)
set_tests_properties(bench_rejects_unknown_flag PROPERTIES WILL_FAIL TRUE)
# Thread and shard counts are 32-bit: 2^32 + 1 threads must not wrap to 1.
add_test(NAME bench_rejects_threads_past_32_bits
         COMMAND bench_fragment_decay --seeds 1 --threads 4294967297)
set_tests_properties(bench_rejects_threads_past_32_bits
                     PROPERTIES WILL_FAIL TRUE)

# The fixed sweeps read no flags at all; each exits 2 on any argument
# (here the harness's --seeds) before its sweep starts.
foreach(name bench_blue_fraction bench_coloring_ablation bench_grc_structure
             bench_lb_awake_ring bench_lb_product_grc bench_phase_cost)
  add_test(NAME ${name}_rejects_flags COMMAND ${name} --seeds 1)
  set_tests_properties(${name}_rejects_flags PROPERTIES WILL_FAIL TRUE)
endforeach()
