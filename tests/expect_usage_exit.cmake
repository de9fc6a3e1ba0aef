# Runs the command line given after `--` and passes only if it exits with
# status 2 and prints its usage on stderr: what every bench does for an
# unknown flag, a missing value or one out of range.
#   cmake -P expect_usage_exit.cmake -- <binary> <args>...
set(cmd)
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()

execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "expected exit status 2, got '${rc}'; stderr:\n${err}")
endif()
if(NOT err MATCHES "usage: ")
  message(FATAL_ERROR "exit status 2 but no usage on stderr:\n${err}")
endif()
