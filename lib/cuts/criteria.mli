(** Cut-selection criteria (paper Table I).

    Three passes rank candidate cuts by different priorities, increasing
    the diversity of the cuts tried in local function checking:

    {v
    Pass | Main metric  | Tie-breaker 1 | Tie-breaker 2
    1    | fanout       | cut size      | small level
    2    | small level  | cut size      | fanout
    3    | large level  | cut size      | fanout
    v}

    High average fanout of cut nodes is preferred (Kuehlmann's cutpoint
    heuristic), small cut size always, and level direction depends on the
    pass. *)

type pass = Fanout_first | Small_level_first | Large_level_first

(** The three passes in Table I order. *)
val table1 : pass list

(** [compare pass ~fanout ~size ~level ~fanout' ~size' ~level'] orders
    better cuts first.  Each cut is given by its size and by the fanout
    counts and the structural levels of its nodes, each summed: the
    criteria compare the averages [fanout / size] and [level / size].
    They compare exactly, as integer cross-products; for sums this small
    that is also the order of their float quotients.  Plain integer
    arguments let a selection loop score cuts without allocating. *)
val compare :
  pass ->
  fanout:int ->
  size:int ->
  level:int ->
  fanout':int ->
  size':int ->
  level':int ->
  int
