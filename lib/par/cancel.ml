(* Cooperative cancellation token: an atomic flag plus an optional
   wall-clock deadline.  [poll] latches a deadline expiry into the flag so
   that later polls cost a single atomic load. *)

type t = { flag : bool Atomic.t; deadline : float }

let create ?deadline_in () =
  let deadline =
    match deadline_in with
    | None -> Float.infinity
    | Some d -> Unix.gettimeofday () +. d
  in
  { flag = Atomic.make false; deadline }

let set t = Atomic.set t.flag true
let is_set t = Atomic.get t.flag

let poll t =
  Atomic.get t.flag
  || t.deadline < Float.infinity
     && Unix.gettimeofday () > t.deadline
     &&
     (Atomic.set t.flag true;
      true)

(* Optional-token helpers: engine loops thread [cancel : t option] and the
   absent token must cost nothing on the hot path. *)
let poll_opt = function None -> false | Some t -> poll t
let is_set_opt = function None -> false | Some t -> is_set t
