# Runs one command-line tool and checks how it ended:
#
#   cmake -DEXPECT_EXIT=<code> [-DEXPECT_FILE=<path> [-DEXPECT_TEXT=<text>]]
#         -P run_cli.cmake -- <program> [args...]
#
# Fails unless the program exits with EXPECT_EXIT (a crash never matches).
# With EXPECT_FILE, the file is removed before the run and must exist
# afterwards, containing EXPECT_TEXT when that is given.
set(cmd "")
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()

if(DEFINED EXPECT_FILE)
  file(REMOVE "${EXPECT_FILE}")
endif()
execute_process(COMMAND ${cmd} RESULT_VARIABLE code)
if(NOT code STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "exit ${code}, expected ${EXPECT_EXIT}: ${cmd}")
endif()
if(DEFINED EXPECT_FILE)
  if(NOT EXISTS "${EXPECT_FILE}")
    message(FATAL_ERROR "${EXPECT_FILE} was not written: ${cmd}")
  endif()
  if(DEFINED EXPECT_TEXT)
    file(READ "${EXPECT_FILE}" content)
    string(FIND "${content}" "${EXPECT_TEXT}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "${EXPECT_FILE} lacks '${EXPECT_TEXT}': ${cmd}")
    endif()
  endif()
endif()
