(** An ABC-style command interpreter over the whole toolkit.

    The interpreter keeps a {e current network} plus a store of named
    networks, and executes line-oriented commands — reading/generating
    circuits, running optimisation passes, building miters and invoking the
    checkers.  It backs the [simsweep-shell] binary and is a plain library
    so scripts are unit-testable.

    Commands (see [exec _ "help"] for the same list):
    {v
    read FILE              load an AIGER file as the current network
    write FILE             write the current network (.aig = binary)
    gen FAMILY [N]         generate a circuit (adder, multiplier, wallace,
                           square, sqrt, hypot, log2, sin, voter, divider,
                           barrel, alu, regfile, display); N = width/size
    strash                 sweep dangling nodes
    balance | rewrite | refactor | xorflip | resyn2 | light
                           optimisation passes
    double [N]             enlarge N times (default 1)
    store NAME             save the current network under NAME
    load NAME              make a stored network current
    miter NAME             replace current with miter(current, NAME)
    cec [ENGINE]           check the current miter with a {!Engines}
                           name (default combined)
    fraig                  merge functionally equivalent internal nodes
    certify                check with certificate generation + validation
    sim N                  print N random simulation vectors
    stats                  print size statistics
    dot FILE               write Graphviz
    help                   this list
    v}  *)

type state

(** Fresh interpreter state.  When [pool] is omitted a private pool is
    created lazily and shut down by [Gc] finalisation at exit.

    A [state] is single-session: it is not safe to share one state
    between domains or threads.  Concurrent sessions must each own a
    [state]; they {e may} share one [pool] (submissions are serialized by
    the pool). *)
val create : ?pool:Par.Pool.t -> unit -> state

(** [exec ?cancel state line] runs one command; returns its printable
    output or an error message.  Blank lines and comments yield [Ok ""].
    A [#] starts a comment only at the start of a word, so
    [read foo#1.aig] names a file.  Double or single quotes group a word
    ([read "my file.aig"]).  The line is scanned as a script is, so [;]
    separates commands here too: they run in order up to the first
    error, and their outputs are joined by newlines.  [cancel] is
    forwarded to the long-running commands ([cec], [fraig]). *)
val exec : ?cancel:Par.Cancel.t -> state -> string -> (string, string) result

(** Run a whole script, stopping at the first error; returns the
    concatenated output.  Commands are separated by newlines or [;] —
    except inside quotes or comments — and an error is reported as
    [command N (TEXT): MESSAGE] with N the 1-based index of the offending
    command (blank segments are not counted). *)
val exec_script :
  ?cancel:Par.Cancel.t -> state -> string -> (string, string) result
