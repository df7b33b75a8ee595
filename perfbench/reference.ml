(* The host reference: a fixed computation of the benchmark's own, linked
   with no QuickSand library, so no change to the program can change it.
   It builds a hash table of boxed values bigger than the CPU caches and
   then reads and replaces random entries, allocating as it goes — the
   kind of work (pointer chasing, allocation, major-heap marking) the
   workloads spend their time on. main.exe runs it in a fresh process
   before and after every repetition and divides the repetition's time by
   the mean of the two (README.md, "Host reference").

   Prints its wall-clock time in seconds. *)

let () =
  let t0 = Monotonic_clock.now () in
  let n = 1 lsl 19 in
  let h = Hashtbl.create n in
  for i = 0 to n - 1 do
    Hashtbl.replace h i (i, [ i; i + 1 ])
  done;
  let st = Random.State.make [| 42 |] in
  let acc = ref 0 in
  for _ = 1 to 500_000 do
    let k = Random.State.int st n in
    let a, l = Hashtbl.find h k in
    acc := !acc + a + List.length l;
    Hashtbl.replace h k (a + 1, a :: List.tl l)
  done;
  let t1 = Monotonic_clock.now () in
  (* every step adds at least 2, so this only keeps the work observable *)
  if !acc <= 0 then exit 1;
  Printf.printf "%.9f\n" (Int64.to_float (Int64.sub t1 t0) *. 1e-9)
