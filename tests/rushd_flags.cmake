# Runs rushd with one malformed flag and requires a clean refusal: exit
# status 2 and a "rushd: invalid ..." line on stderr, not a crash.
#
#   cmake -DRUSHD=<rushd binary> -DSOCKET=<path> -DFLAG=<flag> -DVALUE=<value>
#         -P rushd_flags.cmake
execute_process(COMMAND "${RUSHD}" --socket "${SOCKET}" "${FLAG}" "${VALUE}"
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 20)
file(REMOVE "${SOCKET}")
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "rushd ${FLAG} ${VALUE}: exit status '${status}', expected 2\n${err}")
endif()
if(NOT err MATCHES "(^|\n)rushd: invalid [^\n]+")
  message(FATAL_ERROR "rushd ${FLAG} ${VALUE}: no 'rushd: invalid ...' line on stderr\n${err}")
endif()
message(STATUS "rushd ${FLAG} ${VALUE}: ${err}")
