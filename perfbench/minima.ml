(* Element-wise minima over repetitions of the same deterministic work.

   Every repetition of a workload at one seed does the same simulated
   work in the same order: its k-th slice of references, or its k-th
   fault, is the same work in every repetition.  Interference from the
   rest of the host only ever adds time, and on a shared host it comes
   in bursts shorter than a repetition.  The minimum over repetitions of
   each slice is therefore a steady estimate of what the work itself
   costs, where a whole-repetition minimum or median is not. *)

type t = { mutable mins : int array option; mutable mismatch : bool }

let create () = { mins = None; mismatch = false }

let add t xs =
  match t.mins with
  | None -> t.mins <- Some (Array.copy xs)
  | Some a when Array.length a <> Array.length xs -> t.mismatch <- true
  | Some a -> Array.iteri (fun i x -> if x < a.(i) then a.(i) <- x) xs

let get t = match t.mins with Some a -> a | None -> [||]
let sum t = Array.fold_left ( + ) 0 (get t)

(* Repetitions disagreed on how many slices or faults they had. *)
let mismatch t = t.mismatch
