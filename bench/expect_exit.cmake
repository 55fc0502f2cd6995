# Runs one bench and requires the strict-flag rejection: exit code 2 and
# the offending argument named on stderr. Registered by bench/CMakeLists.txt:
#
#   cmake -DBENCH=<binary> [-DARGS=<argument>] -DNAMED=<text> -P expect_exit.cmake
#
# Environment overrides (LOR_BENCH_SCALE, LOR_BENCH_SHARDS) come from the
# test's ENVIRONMENT property.
execute_process(COMMAND ${BENCH} ${ARGS}
  RESULT_VARIABLE code
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT code STREQUAL "2")
  message(FATAL_ERROR "expected exit 2, got '${code}': ${err}")
endif()
string(FIND "${err}" "'${NAMED}'" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not name '${NAMED}': ${err}")
endif()
