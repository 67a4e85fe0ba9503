# Runs a command-line program with one malformed flag and requires a clean
# refusal: exit status 2 and a "<name>: invalid ..." line on stderr, not a
# crash or a hang.
#
#   cmake -DBINARY=<program> -DNAME=<name> -DFLAG=<flag> -DVALUE=<value>
#         [-DSOCKET=<path>] -P cli_flags.cmake
#
# SOCKET, when given, is passed as --socket SOCKET first (rushd needs a
# listening address) and removed afterwards.
set(args "${FLAG}" "${VALUE}")
if(DEFINED SOCKET)
  list(PREPEND args --socket "${SOCKET}")
endif()
execute_process(COMMAND "${BINARY}" ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 20)
if(DEFINED SOCKET)
  file(REMOVE "${SOCKET}")
endif()
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "${NAME} ${FLAG} ${VALUE}: exit status '${status}', expected 2\n${err}")
endif()
if(NOT err MATCHES "(^|\n)${NAME}: invalid [^\n]+")
  message(FATAL_ERROR "${NAME} ${FLAG} ${VALUE}: no '${NAME}: invalid ...' line on stderr\n${err}")
endif()
message(STATUS "${NAME} ${FLAG} ${VALUE}: ${err}")
