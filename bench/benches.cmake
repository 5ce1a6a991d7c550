function(coolstream_bench name)
  add_executable(bench_${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  set_target_properties(bench_${name} PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
  target_link_libraries(bench_${name} PRIVATE
    coolstream_workload coolstream_core coolstream_analysis
    coolstream_model coolstream_baseline coolstream_logging
    coolstream_net coolstream_sim coolstream_warnings)
  target_include_directories(bench_${name} PRIVATE ${CMAKE_SOURCE_DIR}/bench)
endfunction()

coolstream_bench(fig03_user_types)
coolstream_bench(fig04_overlay)
coolstream_bench(fig05_users)
coolstream_bench(fig06_ready_time)
coolstream_bench(fig07_ready_periods)
coolstream_bench(fig08_continuity)
coolstream_bench(fig09_scalability)
coolstream_bench(fig10_sessions)
coolstream_bench(model_validation)
coolstream_bench(capacity_model)
coolstream_bench(peerwise)
coolstream_bench(overhead)
coolstream_bench(convergence)
coolstream_bench(tree_vs_mesh)
coolstream_bench(ablation_mcache)
coolstream_bench(ablation_substreams)
coolstream_bench(ablation_thresholds)
coolstream_bench(protocol_hotpath)

add_executable(bench_micro_substrate ${CMAKE_SOURCE_DIR}/bench/micro_substrate.cpp)
set_target_properties(bench_micro_substrate PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
target_link_libraries(bench_micro_substrate PRIVATE
  coolstream_core coolstream_logging coolstream_net coolstream_sim
  benchmark::benchmark coolstream_warnings)
