// Workloads.Generator.kernel ~size:12 ~seed:148 ()
.kernel random-148
bb0:
  setp         %r6, %r0, %r4
  br %r6, bb2, p=0.110321
bb1:
  mul.f32      %r7, %r2, %r5
bb2:
  mov          %r8
bb3:
  sub.f32      %r9, %r2, %r8
  ld.shared    %r10, %r2
  add.f32      %r0, %r5, %r0
  rcp.f32      %r11, %r10
  ld.global.wide64 %r12, %r1
  ld.global.wide64 %r13, %r4
  add.s32      %r8, %r8, %r8
  setp         %r14, %r8
  br %r14, bb3, loop=3
bb4:
  setp         %r15, %r11, %r11
  br %r15, bb6, p=0.391034
bb5:
  sin.f32      %r16, %r13
bb6:
  mov          %r17
bb7:
  tex          %r18, %r2
  add.s32      %r19, %r3, %r17
  add.s32      %r20, %r9, %r4
  sin.f32      %r21, %r1
  ld.shared    %r22, %r20
  setp         %r23, %r12, %r21
  br %r23, bb9, p=0.602244
bb8:
  fma.f32      %r24, %r11, %r22, %r17
  add.s32      %r20, %r19, %r11
  sub.s32      %r25, %r3, %r22
bb9:
  add.s32      %r17, %r17, %r17
  setp         %r26, %r17
  br %r26, bb7, loop=6
bb10:
  st.global    %r17, %r22
  fma.f32      %r27, %r11, %r10, %r12
  sub.f32      %r28, %r1, %r9
  mov          %r29
bb11:
  fma.f32      %r30, %r17, %r27, %r1
  sub.s32      %r31, %r8, %r30
  add.s32      %r29, %r29, %r29
  setp         %r32, %r29
  br %r32, bb11, loop=4
bb12:
  st.global    %r2, %r0
  ld.global.wide64 %r33, %r19
  add.f32      %r34, %r11, %r30
  add.f32      %r35, %r18, %r12
  ex2.f32      %r36, %r20
  st.shared    %r34, %r2
  mov          %r37
bb13:
  st.shared    %r22, %r34
  ld.global    %r38, %r4
  st.global    %r10, %r11
  ld.global    %r39, %r18
  add.s32      %r40, %r29, %r18
  st.shared    %r10, %r28
  add.s32      %r41, %r20, %r20
  tex          %r42, %r4
  ld.global    %r43, %r18
  selp         %r44, %r35, %r18, %r35
  sub.s32      %r45, %r20, %r27
  add.f32      %r46, %r2, %r45
  add.s32      %r37, %r37, %r37
  setp         %r47, %r37
  br %r47, bb13, loop=2
bb14:
  selp         %r48, %r2, %r28, %r27
  ld.shared    %r49, %r33
  add.s32      %r48, %r48, %r17
  selp         %r50, %r30, %r10, %r1
  sqrt.f32     %r51, %r33
  selp         %r52, %r45, %r12, %r50
  mul.f32      %r53, %r43, %r51
  add.s32      %r54, %r53, %r51
  add.f32      %r55, %r2, %r45
  ld.global.wide64 %r56, %r33
  sub.f32      %r57, %r8, %r52
  mov          %r58
bb15:
  add.f32      %r34, %r44, %r10
  ld.shared    %r59, %r42
  add.f32      %r60, %r29, %r49
  sub.f32      %r61, %r1, %r28
  sqrt.f32     %r62, %r8
  ld.global    %r63, %r34
  add.s32      %r58, %r58, %r58
  setp         %r64, %r58
  br %r64, bb15, loop=4
bb16:
  setp         %r65, %r48, %r60
  br %r65, bb18, p=0.834798
bb17:
  and.b32      %r66, %r54, %r56
  add.f32      %r67, %r31, %r55
bb18:
  st.global    %r39, %r13
  ret
